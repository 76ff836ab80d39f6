// Package trace is the virtual-time observability plane: per-request spans,
// per-queue latency histograms, and the supervisor flight recorder. It is
// built directly on the deterministic sim clock, so every artifact it
// produces — a Chrome trace, a percentile row, a recovery timeline — is
// bit-identical across runs with the same seed.
//
// The plane has three parts with two cost disciplines:
//
//   - Histograms (Hist) and cross-layer birth stamps (Mark/TakeMark) are
//     ALWAYS ON and charge nothing: sim.CPUAccount.Charge is the only way
//     simulated work exists, and recording never calls it nor schedules a
//     loop event, so the metrics plane is invisible in virtual time. This is
//     what lets BENCH_rx/BENCH_blk carry per-queue p50/p99 while the Figure 8
//     Q=1 numbers stay bit-for-bit at their paper values.
//   - Span events (Event) are OFF by default. When enabled, each recorded
//     hop charges sim.CostTraceEvent to a dedicated "trace" CPU account —
//     the tracing overhead is modelled honestly and shows up in CPU
//     utilisation, while throughput stays untouched (charges never advance
//     the clock; only scheduled events do).
//
// A span is keyed by (class, queue, tag) using the identity each layer
// already threads: the kernel block tag for block requests, the shared-pool
// slot for net TX, the buffer IOVA for net RX, the device-local command ID
// on the device engine's own track. The hop taxonomy is fixed (Hop*
// constants) so cmd/sudtrace can pair adjacent hops into per-hop latency
// breakdowns without per-site knowledge.
package trace

import (
	"sud/internal/flatmap"
	"sud/internal/sim"
)

// Span classes: the request populations spans are keyed under.
const (
	ClassBlk   = "blk"    // block request, tag = kernel block tag
	ClassNetRx = "net-rx" // received frame, tag = buffer IOVA
	ClassNetTx = "net-tx" // transmitted frame, tag = shared TX slot
	ClassDev   = "dev"    // device engine's own track, tag = device CID/index
)

// Span hops, in causal order along the request path. Not every class visits
// every hop; sudtrace pairs whatever adjacent hops a span recorded.
const (
	HopSubmit      = "submit"       // kernel core accepted the request
	HopUchanEnq    = "uchan.enq"    // proxy queued the upcall on the ring
	HopUchanDeq    = "uchan.deq"    // driver process dequeued it
	HopDoorbell    = "doorbell"     // driver rang (or staged) the device doorbell
	HopDevStart    = "dev.start"    // device engine started the command
	HopDevComplete = "dev.complete" // device engine posted the completion
	HopDrvComplete = "drv.complete" // driver observed the completion
	HopGuard       = "guard.copy"   // proxy guard-copied the payload
	HopFlip        = "guard.flip"   // proxy took the page-flip zero-copy path
	HopComplete    = "complete"     // kernel core delivered the completion
	HopDeliver     = "deliver"      // stack delivered the payload to the socket
)

// MaxEvents bounds the span buffer; past it events are counted as dropped
// rather than grown without bound (a flood with tracing on is finite).
const MaxEvents = 1 << 20

// Event is one span hop observation. Run distinguishes the traced machine
// when events from several runs are merged into one export (sudbench traces
// each benchmark row on its own machine, and tags recur across machines);
// the tracer itself always records 0.
type Event struct {
	At    sim.Time
	Class string
	Hop   string
	Queue int
	Tag   uint64
	Run   int
}

// markKey names one class and queue's stamp table.
type markKey struct {
	class string
	queue int
}

// Tracer is one machine's span plane plus the cross-layer stamp table. All
// methods are nil-receiver safe so instrumentation sites need no guards.
type Tracer struct {
	loop *sim.Loop
	acct *sim.CPUAccount

	enabled bool
	events  []Event
	dropped uint64

	// marks holds each class and queue's stamps by tag. The outer map only
	// gains keys; stamps placed and taken churn the inner tables.
	marks map[markKey]*flatmap.Map[uint64, sim.Time]
}

// New creates a tracer charging span-event costs to a dedicated "trace"
// account on cpu. The span plane starts disabled.
func New(loop *sim.Loop, cpu *sim.CPUStats) *Tracer {
	return &Tracer{loop: loop, acct: cpu.Account("trace"), marks: make(map[markKey]*flatmap.Map[uint64, sim.Time])}
}

// Enable turns the span plane on: Event calls record and charge from now on.
func (t *Tracer) Enable() {
	if t != nil {
		t.enabled = true
	}
}

// Disable turns the span plane off (recorded events are kept).
func (t *Tracer) Disable() {
	if t != nil {
		t.enabled = false
	}
}

// Enabled reports whether span events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

// Event records one span hop, charging sim.CostTraceEvent to the trace
// account. It is a no-op (and charges nothing) when the span plane is off.
func (t *Tracer) Event(class string, q int, tag uint64, hop string) {
	if t == nil || !t.enabled {
		return
	}
	t.acct.Charge(sim.CostTraceEvent)
	if len(t.events) >= MaxEvents {
		t.dropped++
		return
	}
	t.events = append(t.events, Event{At: t.loop.Now(), Class: class, Hop: hop, Queue: q, Tag: tag})
}

// Events returns the recorded span events in record order (not a copy).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Dropped reports span events lost to the MaxEvents cap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// ResetEvents drops the recorded span buffer (the stamp table survives — it
// tracks in-flight requests, not history).
func (t *Tracer) ResetEvents() {
	if t == nil {
		return
	}
	t.events = nil
	t.dropped = 0
}

// Mark stamps (class, q, tag) with the current virtual time. It is part of
// the always-on metrics plane: zero charges, no events — the device-side
// birth stamp a downstream layer turns into an end-to-end latency sample.
// Re-marking an existing key overwrites it (buffer reuse).
func (t *Tracer) Mark(class string, q int, tag uint64) {
	if t == nil {
		return
	}
	k := markKey{class, q}
	m := t.marks[k]
	if m == nil {
		m = new(flatmap.Map[uint64, sim.Time])
		t.marks[k] = m
	}
	m.Put(tag, t.loop.Now())
}

// TakeMark removes and returns the stamp for (class, q, tag).
func (t *Tracer) TakeMark(class string, q int, tag uint64) (sim.Time, bool) {
	if t == nil {
		return 0, false
	}
	m := t.marks[markKey{class, q}]
	if m == nil {
		return 0, false
	}
	return m.Delete(tag)
}

// TakeLat pops the stamp and returns the virtual time elapsed since it was
// placed. Call sites record the result straight into a histogram without
// needing their own handle on the clock.
func (t *Tracer) TakeLat(class string, q int, tag uint64) (sim.Duration, bool) {
	at, ok := t.TakeMark(class, q, tag)
	if !ok {
		return 0, false
	}
	return t.loop.Now() - at, true
}
