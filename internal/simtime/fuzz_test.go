package simtime

import "testing"

// firing is one observed event execution: the instant it ran, the queue's
// sequence-derived tag, the firing ordinal and the instant the event was
// scheduled at. Comparing slices of firings across schedulers pins
// bit-for-bit (At, seq) equivalence.
type firing struct {
	At    Time
	Tag   int
	Ord   int
	Sched Time
}

// runSchedulerScript interprets script as a deterministic stream of
// schedule / cancel / ticker / halt operations against q, interleaved with
// event execution, and returns the complete firing sequence. The same script
// run on the wheel and on the heap must return identical slices.
func runSchedulerScript(q *EventQueue, script []byte) []firing {
	var fired []firing
	var tickers []*Ticker
	// Handles are only valid until the event reaches a terminal state and the
	// queue schedules again (records are recycled), so the script tracks
	// which tags have fired and never cancels a stale handle — cancelling one
	// would target whatever event reused the record, and the two schedulers
	// recycle at different times.
	type handle struct {
		ev  *Event
		tag int
	}
	var pending []handle
	firedTags := map[int]bool{}
	tag := 0
	note := func(id int) func(Time) {
		return func(now Time) {
			firedTags[id] = true
			fired = append(fired, firing{now, id, len(fired), q.ScheduledAt()})
		}
	}
	for i := 0; i+2 < len(script) && len(fired) < 1<<14; i += 3 {
		op, a, b := script[i], script[i+1], script[i+2]
		switch op % 7 {
		case 0, 1: // schedule a one-shot at a quantized-or-not offset
			// Offsets deliberately mix sub-tick fractions, exact tick
			// multiples, same-instant duplicates, and far-future jumps so the
			// wheel's drain/l0/l1/overflow routing all get exercised.
			off := Duration(a) * Duration(b+1) / 997
			if a%5 == 0 {
				off = Duration(a) // exact integer seconds: l1/overflow
			}
			if a%17 == 0 {
				off = 0 // same-instant FIFO
			}
			if a == 251 {
				off = Duration(b) * 100000 // deep overflow pages
			}
			tag++
			ev, err := q.Schedule(q.Now()+off, note(tag))
			if err != nil {
				panic(err)
			}
			pending = append(pending, handle{ev, tag})
		case 2: // cancel a previously scheduled, still-valid event
			for len(pending) > 0 {
				idx := int(a) % len(pending)
				h := pending[idx]
				pending[idx] = pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				if firedTags[h.tag] {
					continue // stale handle: the record may have been reused
				}
				q.Cancel(h.ev)
				break
			}
		case 3: // start a ticker
			period := Duration(a%50+1) / 128
			tag++
			tk, err := q.NewTicker(q.Now()+Duration(b)/256, period, note(tag))
			if err != nil {
				panic(err)
			}
			tickers = append(tickers, tk)
		case 4: // stop a ticker
			if len(tickers) > 0 {
				tickers[int(a)%len(tickers)].Stop()
			}
		case 5: // run a bounded slice of virtual time
			if err := q.RunUntil(q.Now() + Duration(a)/16); err != nil && err != ErrHalted {
				panic(err)
			}
		case 6: // step a few events, or run up to a near pending one
			if a >= 128 {
				for _, h := range pending {
					if !firedTags[h.tag] && h.ev.Pending() && h.ev.At <= q.Now()+16 {
						if err := q.RunBefore(h.ev); err != nil {
							panic(err)
						}
						break
					}
				}
				break
			}
			for n := 0; n < int(a%8); n++ {
				if !q.Step() {
					break
				}
			}
		}
	}
	// Drain everything still queued so late-container routing is compared
	// too; tickers would run forever, so stop them first.
	for _, tk := range tickers {
		tk.Stop()
	}
	const cap = 1 << 15
	for len(fired) < cap && q.Step() {
	}
	return fired
}

// FuzzSchedulerEquivalence feeds random operation scripts to the wheel-backed
// and heap-backed queues and requires byte-identical firing sequences — the
// (At, seq) total order the determinism guarantees rest on.
func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add([]byte{0, 10, 20, 0, 10, 20, 5, 255, 0})
	f.Add([]byte{3, 7, 0, 5, 200, 0, 4, 0, 0, 5, 255, 0})
	f.Add([]byte{0, 251, 9, 0, 251, 9, 2, 0, 0, 5, 255, 0})
	f.Add([]byte{0, 17, 1, 0, 34, 1, 0, 51, 1, 6, 7, 0})
	f.Add([]byte{1, 85, 3, 3, 12, 128, 5, 90, 0, 2, 1, 0, 5, 255, 0})
	f.Add([]byte{0, 40, 3, 0, 17, 0, 3, 9, 4, 0, 80, 1, 6, 200, 0, 6, 3, 0, 5, 255, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		wheel := runSchedulerScript(NewEventQueue(), script)
		heap := runSchedulerScript(NewHeapEventQueue(), script)
		if len(wheel) != len(heap) {
			t.Fatalf("wheel fired %d events, heap fired %d", len(wheel), len(heap))
		}
		for i := range wheel {
			if wheel[i] != heap[i] {
				t.Fatalf("firing %d diverges: wheel %+v, heap %+v", i, wheel[i], heap[i])
			}
		}
	})
}
