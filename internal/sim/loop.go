package sim

import (
	"container/heap"
	"fmt"
)

// Event is a scheduled callback. Events fire in timestamp order; ties are
// broken by scheduling order so the simulation is fully deterministic.
//
// Fire-and-forget callbacks (At, After) never see their Event: the loop takes
// it from a free list and returns it there when it fires. A caller that
// cancels or re-arms a timer owns an Event value instead: it binds Fn once,
// schedules it with Arm/ArmAfter, stops it with Cancel and asks Pending —
// so re-arming a timer allocates nothing.
type Event struct {
	At Time
	Fn func()

	seq    uint64
	pos    int  // heap index + 1; 0 while not scheduled
	pooled bool // owned by the loop's free list (At/After)
}

// Pending reports whether the event is scheduled and has not yet fired.
func (e *Event) Pending() bool { return e.pos != 0 }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].pos = i + 1
	q[j].pos = j + 1
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	*q = append(*q, e)
	e.pos = len(*q)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.pos = 0
	*q = old[:n-1]
	return e
}

// Loop is the discrete event loop that drives an entire simulated machine.
// It is single-threaded by design: determinism matters more than parallelism
// for reproducing microsecond-scale measurements.
type Loop struct {
	Clock Clock

	queue   eventQueue
	free    []*Event // fired At/After events, reused by the next At
	nextSeq uint64
	stopped bool

	dispatched uint64
}

// NewLoop returns an empty event loop at time zero.
func NewLoop() *Loop { return &Loop{} }

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.Clock.Now() }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics — it would mean the model lost causality. The callback cannot be
// cancelled; a timer that may be cancelled or re-armed is an owned Event
// (Arm).
func (l *Loop) At(t Time, fn func()) {
	if fn == nil {
		panic("sim: scheduling nil event func")
	}
	var e *Event
	if n := len(l.free); n > 0 {
		e = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		e = &Event{pooled: true}
	}
	e.Fn = fn
	l.schedule(e, t)
}

// After schedules fn to run d nanoseconds from now.
func (l *Loop) After(d Duration, fn func()) {
	l.At(l.afterNow(d), fn)
}

// Arm schedules the caller-owned event e to fire e.Fn at absolute virtual
// time t. Arming an event that is already pending panics: a re-armed timer
// is cancelled first, so two firings can never be in flight.
func (l *Loop) Arm(e *Event, t Time) {
	if e.Fn == nil {
		panic("sim: arming event with nil Fn")
	}
	if e.Pending() {
		panic("sim: arming a pending event")
	}
	l.schedule(e, t)
}

// ArmAfter arms the caller-owned event e to fire d nanoseconds from now.
func (l *Loop) ArmAfter(e *Event, d Duration) { l.Arm(e, l.afterNow(d)) }

func (l *Loop) afterNow(d Duration) Time {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling event with negative delay %d", d))
	}
	return l.Clock.Now() + d
}

// schedule queues e at t; seq is assigned here, so events scheduled for one
// instant fire in the order they were scheduled, however they were created.
func (l *Loop) schedule(e *Event, t Time) {
	if t < l.Clock.Now() {
		panic(fmt.Sprintf("sim: scheduling event in the past (%v < %v)", t, l.Clock.Now()))
	}
	e.At = t
	e.seq = l.nextSeq
	l.nextSeq++
	heap.Push(&l.queue, e)
}

// Cancel unschedules an owned event. Cancelling an event that already fired
// or was already cancelled is a harmless no-op.
func (l *Loop) Cancel(e *Event) {
	if e.Pending() {
		heap.Remove(&l.queue, e.pos-1)
	}
}

// Pending reports the number of events waiting to fire.
func (l *Loop) Pending() int { return len(l.queue) }

// Dispatched reports how many events have fired since the loop was created.
func (l *Loop) Dispatched() uint64 { return l.dispatched }

// Stop makes Run/RunUntil return after the current event completes.
func (l *Loop) Stop() { l.stopped = true }

// Step dispatches the single earliest pending event, advancing the clock to
// its timestamp. It reports false if the queue was empty. A fire-and-forget
// event returns to the free list before its callback runs, so the callback's
// own At can reuse it.
func (l *Loop) Step() bool {
	if len(l.queue) == 0 {
		return false
	}
	e := heap.Pop(&l.queue).(*Event)
	l.Clock.advanceTo(e.At)
	fn := e.Fn
	if e.pooled {
		e.Fn = nil
		l.free = append(l.free, e)
	}
	l.dispatched++
	fn()
	return true
}

// Run dispatches events until the queue is empty or Stop is called.
func (l *Loop) Run() {
	l.stopped = false
	for !l.stopped && l.Step() {
	}
}

// RunUntil dispatches events with timestamps <= deadline, then advances the
// clock to the deadline (if it is not already past it). Events scheduled
// beyond the deadline remain queued.
func (l *Loop) RunUntil(deadline Time) {
	l.stopped = false
	for !l.stopped {
		if len(l.queue) == 0 || l.queue[0].At > deadline {
			break
		}
		l.Step()
	}
	if l.Clock.Now() < deadline {
		l.Clock.advanceTo(deadline)
	}
}

// RunFor runs the loop for d nanoseconds of virtual time from now.
func (l *Loop) RunFor(d Duration) { l.RunUntil(l.Clock.Now() + d) }
