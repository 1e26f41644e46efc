// Package simtime provides a deterministic discrete-event simulation kernel:
// a virtual clock, a time-ordered event queue, and periodic timers.
//
// All HCPerf simulation components of one vehicle (task engine, vehicle
// dynamics, coordinators) schedule work on a single EventQueue and observe
// the same virtual clock, which makes every run exactly reproducible for a
// given seed and configuration. A fleet gives each vehicle its own queue
// and advances the queues step by step with RunBefore (see internal/fleet).
//
// The pending-event store behind an EventQueue is pluggable (see Scheduler):
// the default is a hierarchical timer wheel tuned for the periodic-tick
// workloads the simulator generates, with a binary heap as the reference
// implementation. Both fire events in exactly the same (At, seq) order, so
// the choice is invisible to simulation results.
package simtime

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is a virtual simulation instant, measured in seconds from the start
// of the run. float64 seconds keeps the arithmetic in the same units the
// paper uses (periods, deadlines and execution times are all given in
// seconds or milliseconds).
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = Time

// Common conversion helpers.
const (
	Millisecond Duration = 1e-3
	Second      Duration = 1
)

// FromDuration converts a time.Duration into virtual seconds.
func FromDuration(d time.Duration) Duration { return Duration(d.Seconds()) }

// ToDuration converts virtual seconds into a time.Duration.
func (t Time) ToDuration() time.Duration { return time.Duration(float64(t) * float64(time.Second)) }

// Seconds returns the instant as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

// String renders the instant with millisecond precision, e.g. "12.340s".
func (t Time) String() string { return fmt.Sprintf("%.3fs", float64(t)) }

// Event is a unit of scheduled work. Fn runs when the virtual clock reaches
// At. Events at the same instant run in scheduling order (FIFO), which keeps
// runs deterministic.
//
// An event moves through a three-state machine, tracked in index:
//
//	pending   (index >= 0)  queued by Schedule; Cancel may still remove it
//	fired     (index == -1) executed by Step — terminal
//	cancelled (index == -2) removed by Cancel before firing — terminal
//
// Fired and Cancelled report the terminal states; a pending event reports
// neither. Event records are recycled: once an event reaches a terminal
// state, a later Schedule on the same queue may reuse its record, at which
// point the old handle describes the new pending event. Handles are
// therefore valid for state inspection (and for Cancel, which is a no-op on
// terminal events) only until the owning queue schedules again; callers that
// keep handles across events — like Ticker — must drop them no later than
// when the event reaches a terminal state.
type Event struct {
	At Time
	Fn func(now Time)

	sched Time // the queue's clock when Schedule queued the event
	seq   uint64
	index int    // pending position (scheduler-defined) or terminal state
	next  *Event // intrusive slot-list link while parked in a wheel slot
}

// Cancelled reports whether the event was removed before firing.
func (e *Event) Cancelled() bool { return e.index == -2 }

// Fired reports whether the event was executed by the queue.
func (e *Event) Fired() bool { return e.index == -1 }

// Pending reports whether the event is still queued.
func (e *Event) Pending() bool { return e.index >= 0 }

// ErrHalted is returned by Run variants when Halt stopped the queue early.
var ErrHalted = errors.New("simtime: queue halted")

// Scheduler is the pending-event store strategy behind an EventQueue. It is
// sealed: the two implementations are the hierarchical timer wheel
// (NewEventQueue, the default) and the reference binary heap
// (NewHeapEventQueue). Both fire events in identical (At, seq) order — the
// differential fuzz harness pins that equivalence — so scheduler choice
// never changes simulation results, only their cost.
type Scheduler interface {
	// push stores a pending event and assigns its pending index.
	push(ev *Event)
	// pop removes and returns the earliest (At, seq) live event, marking
	// it fired, or returns nil when no live events remain.
	pop() *Event
	// peek returns the earliest (At, seq) live event without removing it,
	// or nil when no live events remain.
	peek() *Event
	// cancel marks a pending event cancelled. The caller guarantees the
	// event is pending on this scheduler.
	cancel(ev *Event)
	// size returns the number of live (non-cancelled) pending events.
	size() int
}

// EventQueue is a discrete-event scheduler. The zero value is not usable;
// construct with NewEventQueue (timer wheel) or NewHeapEventQueue (binary
// heap).
type EventQueue struct {
	now    Time
	sch    Scheduler
	seq    uint64
	halted bool
	fired  uint64
	// sched is the instant the currently firing event was scheduled at.
	sched Time
	// free recycles terminal event records so steady-state
	// Schedule/Cancel/Step allocates nothing.
	free []*Event
}

// NewEventQueue returns an empty queue with the clock at zero, backed by the
// hierarchical timer wheel.
func NewEventQueue() *EventQueue {
	q := &EventQueue{}
	q.sch = newWheelScheduler(q)
	return q
}

// NewHeapEventQueue returns an empty queue with the clock at zero, backed by
// the reference binary-heap scheduler. It exists for differential testing
// and benchmarking against the default wheel.
func NewHeapEventQueue() *EventQueue {
	q := &EventQueue{}
	q.sch = newHeapScheduler(q)
	return q
}

// Now returns the current virtual time.
func (q *EventQueue) Now() Time { return q.now }

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return q.sch.size() }

// Fired returns the total number of events executed so far.
func (q *EventQueue) Fired() uint64 { return q.fired }

// ScheduledAt returns the virtual instant at which the event now firing was
// scheduled (the queue's Now when Schedule queued it; a ticker's next tick is
// scheduled at the tick before it). Outside an event callback it describes
// the last event that fired. Two events at one instant fire in the order
// they were scheduled, so a caller that knows when a competing event was
// scheduled can tell which of the two a global (At, seq) order puts first.
func (q *EventQueue) ScheduledAt() Time { return q.sched }

// alloc takes an event record off the freelist, or allocates one.
func (q *EventQueue) alloc() *Event {
	if n := len(q.free); n > 0 {
		ev := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return ev
	}
	return &Event{}
}

// recycle returns a terminal event record to the freelist. The record keeps
// its terminal index so held handles still answer Fired/Cancelled correctly
// until the record is reused by a later Schedule.
func (q *EventQueue) recycle(ev *Event) {
	ev.Fn = nil
	ev.next = nil
	q.free = append(q.free, ev)
}

// Schedule enqueues fn to run at the absolute instant at. Scheduling in the
// past (before Now) is an error: the returned event is nil and the function
// is not enqueued. Use At >= Now.
func (q *EventQueue) Schedule(at Time, fn func(now Time)) (*Event, error) {
	if math.IsNaN(float64(at)) {
		return nil, fmt.Errorf("simtime: schedule at NaN")
	}
	if at < q.now {
		return nil, fmt.Errorf("simtime: schedule at %v before now %v", at, q.now)
	}
	if fn == nil {
		return nil, errors.New("simtime: schedule with nil fn")
	}
	ev := q.alloc()
	ev.At = at
	ev.Fn = fn
	ev.sched = q.now
	ev.seq = q.seq
	q.seq++
	q.sch.push(ev)
	return ev, nil
}

// After enqueues fn to run d seconds from now. Negative delays are clamped
// to zero.
func (q *EventQueue) After(d Duration, fn func(now Time)) (*Event, error) {
	if d < 0 {
		d = 0
	}
	return q.Schedule(q.now+d, fn)
}

// Cancel removes a pending event. It is a no-op for events that already
// fired or were already cancelled.
func (q *EventQueue) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	q.sch.cancel(ev)
}

// Halt stops Run/RunUntil after the currently executing event returns.
func (q *EventQueue) Halt() { q.halted = true }

// Step executes the single earliest pending event, advancing the clock to
// its instant. It reports whether an event ran.
func (q *EventQueue) Step() bool {
	ev := q.sch.pop()
	if ev == nil {
		return false
	}
	q.now = ev.At
	q.sched = ev.sched
	q.fired++
	fn := ev.Fn
	fn(q.now)
	// Recycled only after Fn returns: anything Fn scheduled drew from the
	// freelist before this record rejoined it.
	q.recycle(ev)
	return true
}

// Run executes events until the queue drains or Halt is called. It returns
// ErrHalted if halted, nil otherwise.
func (q *EventQueue) Run() error {
	q.halted = false
	for !q.halted {
		if !q.Step() {
			return nil
		}
	}
	return ErrHalted
}

// RunUntil executes events with At <= end, then advances the clock to end.
// Pending events after end stay queued. It returns ErrHalted if halted.
func (q *EventQueue) RunUntil(end Time) error {
	q.halted = false
	for !q.halted {
		ev := q.sch.peek()
		if ev == nil || ev.At > end {
			if end > q.now {
				q.now = end
			}
			return nil
		}
		q.Step()
	}
	return ErrHalted
}

// RunBefore executes, in (At, seq) order, every event ordered before next,
// a pending event of this queue, and leaves next queued as the earliest
// event: the following Step fires it. next must stay pending until it is
// reached. It returns ErrHalted if halted, and an error if next is not
// pending.
func (q *EventQueue) RunBefore(next *Event) error {
	q.halted = false
	for !q.halted {
		if next == nil || next.index < 0 {
			return errors.New("simtime: RunBefore on an event that is not pending")
		}
		if q.sch.peek() == next {
			return nil
		}
		q.Step()
	}
	return ErrHalted
}

// Ticker fires fn every period seconds, starting at start. Changing Period
// takes effect from the next tick. Stop cancels future ticks.
type Ticker struct {
	q      *EventQueue
	fn     func(now Time)
	tickFn func(now Time) // t.tick bound once; a method value allocates per use
	period Duration
	next   *Event
	stop   bool
}

// NewTicker schedules a periodic callback. period must be > 0.
func (q *EventQueue) NewTicker(start Time, period Duration, fn func(now Time)) (*Ticker, error) {
	if period <= 0 {
		return nil, fmt.Errorf("simtime: ticker period %v must be positive", period)
	}
	if fn == nil {
		return nil, errors.New("simtime: ticker with nil fn")
	}
	t := &Ticker{q: q, fn: fn, period: period}
	t.tickFn = t.tick
	ev, err := q.Schedule(start, t.tickFn)
	if err != nil {
		return nil, err
	}
	t.next = ev
	return t, nil
}

func (t *Ticker) tick(now Time) {
	// The firing record is spent: drop the handle before running fn so a
	// Stop — from inside fn or any later event — never cancels a record
	// the queue has recycled to an unrelated event.
	t.next = nil
	if t.stop {
		return
	}
	t.fn(now)
	if t.stop { // fn may have stopped us
		return
	}
	ev, err := t.q.Schedule(now+t.period, t.tickFn)
	if err != nil {
		// Impossible by construction: now + period is strictly after the
		// queue's clock for the positive, finite periods NewTicker and
		// SetPeriod admit. A failure here means the ticker invariant was
		// broken by a simtime bug, not by the caller.
		panic(fmt.Sprintf("simtime: ticker invariant violated rescheduling period %v at %v: %v", t.period, now, err))
	}
	t.next = ev
}

// SetPeriod updates the tick interval from the next tick onward.
// Non-positive periods are rejected and leave the ticker unchanged.
func (t *Ticker) SetPeriod(period Duration) error {
	if period <= 0 {
		return fmt.Errorf("simtime: ticker period %v must be positive", period)
	}
	t.period = period
	return nil
}

// Period returns the current tick interval.
func (t *Ticker) Period() Duration { return t.period }

// Next returns the pending event of the next tick, or nil once the ticker
// is stopped. The handle is valid until that tick fires.
func (t *Ticker) Next() *Event { return t.next }

// Stop cancels all future ticks.
func (t *Ticker) Stop() {
	t.stop = true
	if t.next != nil {
		t.q.Cancel(t.next)
		t.next = nil
	}
}
