package fleet

import (
	"testing"

	"hcperf/internal/simtime"
)

// TestTieWatchRead pins the tie rule on a bare queue, since no real fleet
// schedules a predecessor read at a step instant from exactly one step
// earlier before its own tick: while phase A or the sampler runs for step
// T_k, only a read at T_k by an event scheduled at T_{k-1} (or later) is a
// tie.
func TestTieWatchRead(t *testing.T) {
	const prev, step = 0.25, 0.5
	cases := []struct {
		name       string
		sched, at  simtime.Time
		armed, tie bool
	}{
		{"scheduled at the previous step instant", prev, step, true, true},
		{"scheduled before the previous step instant", 0.125, step, true, false},
		{"read before the step instant", prev, 0.375, true, false},
		{"in phase B", prev, step, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := &tieWatch{step: step, prev: prev, armed: tc.armed}
			q := simtime.NewEventQueue()
			if _, err := q.Schedule(tc.sched, func(simtime.Time) {
				if _, err := q.Schedule(tc.at, func(simtime.Time) { w.read(q) }); err != nil {
					t.Fatal(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
			if err := q.Run(); err != nil {
				t.Fatal(err)
			}
			if got := w.tie.Load(); got != tc.tie {
				t.Errorf("tie = %v, want %v", got, tc.tie)
			}
		})
	}
	var nilWatch *tieWatch
	nilWatch.read(simtime.NewEventQueue()) // the reference runner's watch: a no-op
}
