package simtime

import (
	"fmt"
	"testing"
)

// both runs the same subtest against the wheel-backed (default) and
// heap-backed queues, so every behavior below is pinned on both schedulers.
func both(t *testing.T, f func(t *testing.T, q *EventQueue)) {
	t.Helper()
	t.Run("wheel", func(t *testing.T) { f(t, NewEventQueue()) })
	t.Run("heap", func(t *testing.T) { f(t, NewHeapEventQueue()) })
}

// TestEventStateMachine pins the three-state machine the Event doc promises:
// pending (index >= 0), fired (-1), cancelled (-2), with the accessors
// mutually exclusive in every state.
func TestEventStateMachine(t *testing.T) {
	both(t, func(t *testing.T, q *EventQueue) {
		pending, err := q.Schedule(1, func(Time) {})
		if err != nil {
			t.Fatal(err)
		}
		if !pending.Pending() || pending.Fired() || pending.Cancelled() {
			t.Fatalf("scheduled event: Pending=%v Fired=%v Cancelled=%v, want true,false,false",
				pending.Pending(), pending.Fired(), pending.Cancelled())
		}

		cancelled, err := q.Schedule(2, func(Time) {})
		if err != nil {
			t.Fatal(err)
		}
		q.Cancel(cancelled)
		if cancelled.Pending() || cancelled.Fired() || !cancelled.Cancelled() {
			t.Fatalf("cancelled event: Pending=%v Fired=%v Cancelled=%v, want false,false,true",
				cancelled.Pending(), cancelled.Fired(), cancelled.Cancelled())
		}

		if !q.Step() {
			t.Fatal("expected the pending event to fire")
		}
		if pending.Pending() || !pending.Fired() || pending.Cancelled() {
			t.Fatalf("fired event: Pending=%v Fired=%v Cancelled=%v, want false,true,false",
				pending.Pending(), pending.Fired(), pending.Cancelled())
		}

		// Terminal states are sticky for Cancel: a second Cancel (or a Cancel
		// of a fired event) is a no-op, not a corruption.
		q.Cancel(pending)
		q.Cancel(cancelled)
		if !pending.Fired() || !cancelled.Cancelled() {
			t.Fatal("Cancel on a terminal event must not change its state")
		}
	})
}

// TestTickerSetPeriodAfterSameInstantStopStart is the regression test for the
// freelist + ticker interaction: stop ticker A from inside its own callback
// and immediately start ticker B at the same instant. B's first event may
// reuse A's just-recycled record; a SetPeriod on B must still take effect on
// the next tick, and stopping A again must never cancel B's event.
func TestTickerSetPeriodAfterSameInstantStopStart(t *testing.T) {
	both(t, func(t *testing.T, q *EventQueue) {
		var fires []Time
		var a, b *Ticker
		var err error
		a, err = q.NewTicker(0, 1, func(now Time) {
			a.Stop()
			b, err = q.NewTicker(now, 1, func(now Time) {
				fires = append(fires, now)
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := b.SetPeriod(2); err != nil {
				t.Fatal(err)
			}
			a.Stop() // must be a no-op, not a cancel of b's reused record
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := q.RunUntil(5); err != nil {
			t.Fatal(err)
		}
		// b starts at the same instant as a's only tick (t=0); its first tick
		// fires immediately, then the updated period of 2 applies.
		want := []Time{0, 2, 4}
		if fmt.Sprint(fires) != fmt.Sprint(want) {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	})
}

// TestWheelOverflowCascade schedules events far enough apart to live in the
// level-1 wheel and the overflow heap, interleaved with near events, and
// checks global firing order.
func TestWheelOverflowCascade(t *testing.T) {
	q := NewEventQueue()
	// Instants chosen to span all containers: sub-tick (drain after quantize),
	// level 0 (< 0.25 s), level 1 (< 64 s), overflow (>= 64 s), plus ties.
	ats := []Time{0.0001, 0.01, 0.2, 1.5, 30, 63.9, 64, 500, 500, 4096.25, 100000}
	var got []Time
	// Schedule in reverse to exercise out-of-order insertion.
	for i := len(ats) - 1; i >= 0; i-- {
		if _, err := q.Schedule(ats[i], func(now Time) { got = append(got, now) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ats) {
		t.Fatalf("fired %d events, want %d", len(got), len(ats))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order at %d: %v after %v (all: %v)", i, got[i], got[i-1], got)
		}
	}
}

// TestWheelFarFutureClamp pins the beyond-horizon degradation: events past
// the quantization horizon share one clamped tick but still fire in exact
// (At, seq) order from the overflow heap.
func TestWheelFarFutureClamp(t *testing.T) {
	q := NewEventQueue()
	far := Time(float64(wheelHorizon)) // 2^52 ticks * 2^-10 s/tick = 2^42 s
	var got []Time
	for _, at := range []Time{far + 3, far + 1, far + 2, far + 1} {
		if _, err := q.Schedule(at, func(now Time) { got = append(got, now) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Schedule(1, func(now Time) { got = append(got, now) }); err != nil {
		t.Fatal(err)
	}
	if err := q.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{1, far + 1, far + 1, far + 2, far + 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestWheelCancelThenReuse pins the tombstone rule: cancelling a wheel event
// must not let a later Schedule alias the still-bucketed record into firing
// twice or out of order.
func TestWheelCancelThenReuse(t *testing.T) {
	q := NewEventQueue()
	var got []string
	evA, err := q.Schedule(1, func(Time) { got = append(got, "a") })
	if err != nil {
		t.Fatal(err)
	}
	q.Cancel(evA)
	// The record is tombstoned inside the wheel; these schedules must draw
	// fresh records, and the tombstone must be skipped at drain time.
	if _, err := q.Schedule(1, func(Time) { got = append(got, "b") }); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Schedule(2, func(Time) { got = append(got, "c") }); err != nil {
		t.Fatal(err)
	}
	if err := q.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[b c]" {
		t.Fatalf("got %v, want [b c]", got)
	}
}

// TestSteadyStateZeroAllocs pins the freelist contract: once warmed up, a
// schedule→step cycle and a ticker churn cycle allocate nothing, on both
// schedulers.
func TestSteadyStateZeroAllocs(t *testing.T) {
	both(t, func(t *testing.T, q *EventQueue) {
		fn := func(Time) {}
		// Warm-up: populate the freelist and container capacity.
		for i := 0; i < 64; i++ {
			if _, err := q.After(0.001, fn); err != nil {
				t.Fatal(err)
			}
		}
		for q.Step() {
		}
		allocs := testing.AllocsPerRun(100, func() {
			ev, _ := q.After(0.001, fn)
			_ = ev
			q.Step()
		})
		if allocs != 0 {
			t.Errorf("schedule/step steady state: %v allocs/op, want 0", allocs)
		}
		allocs = testing.AllocsPerRun(100, func() {
			ev, _ := q.After(0.002, fn)
			q.Cancel(ev)
			ev2, _ := q.After(0.001, fn)
			_ = ev2
			q.Step()
		})
		if allocs != 0 {
			t.Errorf("schedule/cancel/step steady state: %v allocs/op, want 0", allocs)
		}
	})
}

// TestHeapAndWheelIdenticalSequences is the deterministic sibling of
// FuzzSchedulerEquivalence: a fixed pseudo-random script replayed on both
// queues must fire at identical instants in identical order.
func TestHeapAndWheelIdenticalSequences(t *testing.T) {
	script := make([]byte, 0, 4096)
	s := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 4096; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		script = append(script, byte(s))
	}
	wheel := runSchedulerScript(NewEventQueue(), script)
	heap := runSchedulerScript(NewHeapEventQueue(), script)
	if fmt.Sprint(wheel) != fmt.Sprint(heap) {
		t.Fatalf("wheel fired %d events, heap fired %d; sequences differ", len(wheel), len(heap))
	}
}

// TestRunBeforeSplitsSameInstant pins RunBefore on both schedulers: it runs
// exactly the events (At, seq)-ordered before the target — earlier instants
// and same-instant events scheduled first — leaves the target as the next
// event to fire, and ScheduledAt reports each firing event's schedule time.
func TestRunBeforeSplitsSameInstant(t *testing.T) {
	both(t, func(t *testing.T, q *EventQueue) {
		var got []string
		note := func(name string) func(Time) {
			return func(now Time) {
				got = append(got, fmt.Sprintf("%s@%g/%g", name, float64(now), float64(q.ScheduledAt())))
			}
		}
		mustSchedule := func(at Time, fn func(Time)) *Event {
			t.Helper()
			ev, err := q.Schedule(at, fn)
			if err != nil {
				t.Fatal(err)
			}
			return ev
		}
		mustSchedule(1, note("a"))
		mustSchedule(0.5, func(now Time) {
			note("b")(now)
			mustSchedule(2, note("late")) // scheduled at 0.5, after the target
		})
		mustSchedule(0, note("x"))
		tk, err := q.NewTicker(2, 1, note("tick"))
		if err != nil {
			t.Fatal(err)
		}
		mustSchedule(2, note("after"))
		next := tk.Next()
		if err := q.RunBefore(next); err != nil {
			t.Fatal(err)
		}
		want := []string{"x@0/0", "b@0.5/0", "a@1/0"}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("RunBefore fired %v, want %v", got, want)
		}
		if !next.Pending() {
			t.Fatal("RunBefore fired its target")
		}
		got = nil
		if !q.Step() || fmt.Sprint(got) != "[tick@2/0]" {
			t.Fatalf("the step after RunBefore fired %v, want the target tick", got)
		}
		// Same-instant events scheduled after the tick run after it, in
		// scheduling order; the next tick is scheduled at the tick that
		// queued it.
		if err := q.RunBefore(tk.Next()); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != "[tick@2/0 after@2/0 late@2/0.5]" {
			t.Fatalf("second RunBefore fired %v", got)
		}
		got = nil
		if !q.Step() || fmt.Sprint(got) != "[tick@3/2]" {
			t.Fatalf("third step fired %v, want the tick scheduled at 2", got)
		}
		tk.Stop()
		if err := q.RunBefore(tk.Next()); err == nil {
			t.Fatal("RunBefore on a stopped ticker's nil event succeeded")
		}
	})
}
