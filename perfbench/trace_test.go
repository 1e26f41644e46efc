package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		// Overlapping children count once: [10, 50] covers 40.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		// A child running past its parent is clipped: [90, 100] covers 10.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild is its parent's business, not the root's.
		{ID: 5, Parent: 2, Name: "d", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 50, 2: 14, 3: 30, 4: 30, 5: 6} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}
}

func TestSelfTimeWithoutChildrenIsDuration(t *testing.T) {
	self := selfTimes([]span{{ID: 7, Start: 5, End: 9}})
	if self[7] != 4 {
		t.Fatalf("self time %d, want 4", self[7])
	}
}

func TestSpanStatsTransportIsRoundTripMinusHandler(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "service.handler POST", Start: 1 * ms, End: 8 * ms},
		{ID: 3, Name: "run.execute", Start: 0, End: 4 * ms},
	}
	for _, st := range spanStats(spans) {
		switch st.name {
		case "op":
			if st.p50 != 10 || st.self != 3 || len(st.transports) != 1 || st.transports[0] != 3 {
				t.Errorf("op stats %+v, want p50 10, self 3, one 3 ms transport", st)
			}
		case "run.execute":
			if len(st.transports) != 0 {
				t.Errorf("run.execute has no handler child but got transports %v", st.transports)
			}
		}
	}
}

func TestNilTracerIsOff(t *testing.T) {
	var tr *tracer
	if id := tr.id(); id != 0 {
		t.Fatalf("nil tracer reserved id %d", id)
	}
	tr.add(1, 0, 1, "op", time.Now(), time.Now()) // must not panic
}
