package simtime

import "container/heap"

// heapScheduler is the reference Scheduler: a global binary min-heap over
// (At, seq). O(log n) per operation with eager cancellation — the simplest
// store that satisfies the ordering contract, kept as the differential
// oracle for the timer wheel.
type heapScheduler struct {
	q *EventQueue
	h eventHeap
}

func newHeapScheduler(q *EventQueue) *heapScheduler { return &heapScheduler{q: q} }

func (s *heapScheduler) push(ev *Event) { heap.Push(&s.h, ev) }

func (s *heapScheduler) pop() *Event {
	if len(s.h) == 0 {
		return nil
	}
	return heap.Pop(&s.h).(*Event)
}

func (s *heapScheduler) peek() *Event {
	if len(s.h) == 0 {
		return nil
	}
	return s.h[0]
}

func (s *heapScheduler) cancel(ev *Event) {
	heap.Remove(&s.h, ev.index)
	ev.index = -2
	// Eager removal detaches the record immediately, so it can be reused
	// right away.
	s.q.recycle(ev)
}

func (s *heapScheduler) size() int { return len(s.h) }

// eventHeap orders events by (At, seq); index tracks the heap position so
// cancellation can remove in place.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}
