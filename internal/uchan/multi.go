package uchan

import (
	"fmt"

	"sud/internal/sim"
)

// MultiChan generalises the user channel from one ring pair per driver to N
// ring pairs — one per simulated CPU/queue — plus a shared urgent lane for
// interrupt-class messages. It is the transport that lets one untrusted
// driver process serve multiple hardware queues concurrently:
//
//   - Each queue owns a full Chan: its own upcall/downcall rings, its own
//     service-loop state (wake, adaptive polling window) and its own
//     deferred doorbell — so doorbell coalescing is per ring, and a slow or
//     hung queue exerts backpressure only on itself (§3.1.1 generalised).
//   - Each queue charges its own driver-side CPU account, modelling one
//     service thread per queue inside the driver process.
//   - Interrupt-class messages travel on the shared urgent lane, which
//     wakes immediately; after servicing an interrupt the lane pokes every
//     sibling ring with pending messages, so bulk upcalls batch behind
//     interrupt wakes exactly as they do on a single-queue channel.
//   - Downcall slots on multi-queue channels cross the ring in the byte
//     framing of codec.go; the kernel side decodes them defensively, since
//     the untrusted driver writes them into shared memory.
//
// A MultiChan over one queue is exactly a Chan: the urgent lane aliases the
// single ring, no framing is applied, and every cost and counter matches the
// single-ring transport bit for bit — Q=1 stays the paper's Figure 8 system.
type MultiChan struct {
	queues []*Chan
	urgent *Chan // aliases queues[0] when len(queues) == 1

	// BadSlots counts malformed downcall slots dropped by the kernel-side
	// decoder (an untrusted driver scribbling on its rings).
	BadSlots uint64

	// slotBufs is the free list DecodeSlot's copies come from: a decoded
	// slot takes one and gives it back when the kernel handler returns. A
	// handler that re-enters the flush (a synchronous Send flushes the
	// downcalls its upcall produced) decodes into a buffer of its own,
	// because the outer one is still out. Buffers grow to the largest
	// payload they have carried.
	slotBufs [][]byte
}

// NewMulti creates a channel with one ring pair per driver-side account in
// drvAccts (the per-queue service threads) between kernel account kern and
// the driver process. len(drvAccts) must be in [1, MaxQueues].
func NewMulti(loop *sim.Loop, kern *sim.CPUAccount, drvAccts []*sim.CPUAccount) *MultiChan {
	if len(drvAccts) < 1 || len(drvAccts) > MaxQueues {
		panic(fmt.Sprintf("uchan: %d queues out of range [1,%d]", len(drvAccts), MaxQueues))
	}
	mc := &MultiChan{}
	for _, a := range drvAccts {
		mc.queues = append(mc.queues, New(loop, kern, a))
	}
	if len(mc.queues) == 1 {
		mc.urgent = mc.queues[0]
	} else {
		// The urgent lane is serviced by the first queue's thread (the
		// interrupt is taken on one CPU and fanned out from there).
		mc.urgent = New(loop, kern, drvAccts[0])
	}
	return mc
}

// NumQueues returns the ring-pair count Q.
func (mc *MultiChan) NumQueues() int { return len(mc.queues) }

// Queue returns queue q's underlying single-ring channel. Proxy classes that
// are not multi-queue aware (wifi, audio) attach to Queue(0).
func (mc *MultiChan) Queue(q int) *Chan { return mc.queues[mc.clamp(q)] }

// UrgentLane returns the shared interrupt-class lane (queue 0's ring on a
// single-queue channel).
func (mc *MultiChan) UrgentLane() *Chan { return mc.urgent }

func (mc *MultiChan) clamp(q int) int {
	if q < 0 || q >= len(mc.queues) {
		return 0
	}
	return q
}

// SetDriverHandler installs the driver-process upcall handler; q is the ring
// the message arrived on (0 for the urgent lane, which queue 0's service
// thread drains). On multi-queue channels, draining an interrupt-class
// message also pokes sibling rings so their queued bulk messages ride the
// interrupt wake.
func (mc *MultiChan) SetDriverHandler(h func(q int, m Msg) (Msg, bool)) {
	for i, c := range mc.queues {
		q := i
		c.DriverHandler = func(m Msg) (Msg, bool) { return h(q, m) }
	}
	if mc.urgent != mc.queues[0] {
		mc.urgent.DriverHandler = func(m Msg) (Msg, bool) {
			r, ok := h(0, m)
			// Interrupt service may have queued downcalls (IRQ ack,
			// netif_rx, xmit completions) on any ring: deliver them now
			// — on a single-queue channel the same drain that services
			// the interrupt flushes them — then let queued bulk upcalls
			// ride the interrupt wake.
			for _, c := range mc.queues {
				c.Flush()
				c.Poke()
			}
			return r, ok
		}
	}
}

// SetOnDrainEnd installs the per-drain hook on every ring (including the
// urgent lane): it runs in driver-process context after each batch of
// upcalls is serviced, before the downcall flush. SUD-UML uses it to flush
// device doorbell writes staged during the batch (submit-side coalescing).
func (mc *MultiChan) SetOnDrainEnd(f func()) {
	for _, c := range mc.queues {
		c.OnDrainEnd = f
	}
	if mc.urgent != mc.queues[0] {
		mc.urgent.OnDrainEnd = f
	}
}

// opEncodedSlot marks a ring entry whose payload is codec.go slot bytes
// written by the driver process; the kernel side must decode it defensively
// before dispatch. Reserved from the proxy-class op space.
const opEncodedSlot = ^uint32(0)

// SetKernelHandler installs the kernel-side downcall handler; q is the ring
// the downcall arrived on. On multi-queue channels the ring carries raw
// slot bytes the untrusted driver wrote; they are decoded here — at the
// kernel-side dequeue, into a buffer from slotBufs that returns when h
// does — and malformed or queue-spoofed slots are dropped and counted,
// never dispatched.
func (mc *MultiChan) SetKernelHandler(h func(q int, m Msg)) {
	for i, c := range mc.queues {
		q := i
		c.KernelHandler = func(m Msg) {
			if m.Op != opEncodedSlot {
				h(q, m)
				return
			}
			var buf []byte
			if n := len(mc.slotBufs); n > 0 {
				buf = mc.slotBufs[n-1]
				mc.slotBufs = mc.slotBufs[:n-1]
			}
			dq, dm, err := DecodeSlot(buf, m.Data)
			if err != nil || dq != q {
				mc.BadSlots++
			} else {
				h(q, dm)
			}
			if dm.Data != nil {
				buf = dm.Data // grown to this payload
			}
			mc.slotBufs = append(mc.slotBufs, buf[:0])
		}
	}
	if mc.urgent != mc.queues[0] {
		mc.urgent.KernelHandler = func(m Msg) { h(0, m) }
	}
}

// --- kernel side ------------------------------------------------------------

// ASend queues an asynchronous upcall on queue q's ring. Ring-full
// backpressure is per queue: a slow queue rejects its own traffic without
// affecting siblings.
func (mc *MultiChan) ASend(q int, m Msg) error {
	return mc.queues[mc.clamp(q)].ASend(m)
}

// ASendUrgent queues an interrupt-class upcall on the shared urgent lane,
// waking the driver immediately.
func (mc *MultiChan) ASendUrgent(m Msg) error { return mc.urgent.ASendUrgent(m) }

// Send performs a synchronous upcall on queue 0 (the control ring: open,
// stop, ioctl — never the per-queue fast path).
func (mc *MultiChan) Send(m Msg) (Msg, error) { return mc.queues[0].Send(m) }

// --- driver side ------------------------------------------------------------

// Down queues an asynchronous downcall on the control ring (queue 0).
func (mc *MultiChan) Down(m Msg) error { return mc.DownQ(0, m) }

// DownQ queues an asynchronous downcall on queue q's ring. On multi-queue
// channels the slot crosses the ring in the codec.go byte framing — the
// driver side writes bytes into the ring's batch storage, and the
// kernel-side dequeue (SetKernelHandler) decodes them defensively before
// dispatch.
func (mc *MultiChan) DownQ(q int, m Msg) error {
	q = mc.clamp(q)
	if len(mc.queues) == 1 {
		return mc.queues[0].Down(m)
	}
	return mc.queues[q].downSlot(q, m)
}

// Flush delivers every queue's batched downcalls, one doorbell per
// non-empty ring.
func (mc *MultiChan) Flush() {
	for _, c := range mc.queues {
		c.Flush()
	}
	if mc.urgent != mc.queues[0] {
		mc.urgent.Flush()
	}
}

// --- lifecycle and knobs ----------------------------------------------------

// Kill tears down every ring (process death).
func (mc *MultiChan) Kill() {
	for _, c := range mc.queues {
		c.Kill()
	}
	if mc.urgent != mc.queues[0] {
		mc.urgent.Kill()
	}
}

// Dead reports whether the channel was killed.
func (mc *MultiChan) Dead() bool { return mc.queues[0].Dead() }

// Pending returns queued upcalls across all rings (hang detection).
func (mc *MultiChan) Pending() int {
	n := 0
	for _, c := range mc.queues {
		n += c.Pending()
	}
	if mc.urgent != mc.queues[0] {
		n += mc.urgent.Pending()
	}
	return n
}

// QueuePending returns queued upcalls on queue q's ring alone — the
// per-queue backlog half of the supervisor's progress watermarks (a single
// wedged ring must be visible while siblings drain theirs).
func (mc *MultiChan) QueuePending(q int) int { return mc.queues[mc.clamp(q)].Pending() }

// SetHung simulates the whole driver process wedging (§3.1.1): every ring
// stops being serviced.
func (mc *MultiChan) SetHung(hung bool) {
	for _, c := range mc.queues {
		c.Hung = hung
	}
	if mc.urgent != mc.queues[0] {
		mc.urgent.Hung = hung
	}
}

// HangQueue wedges a single queue's service thread, leaving siblings and the
// urgent lane live — the per-queue liveness-attack surface.
func (mc *MultiChan) HangQueue(q int, hung bool) { mc.queues[mc.clamp(q)].Hung = hung }

// SetNoBatch disables downcall batching on every ring (§3.1.2 ablation).
func (mc *MultiChan) SetNoBatch(v bool) {
	for _, c := range mc.queues {
		c.NoBatch = v
	}
	if mc.urgent != mc.queues[0] {
		mc.urgent.NoBatch = v
	}
}

// SetNoPoll disables the idle-thread polling window on every ring (§4.2
// ablation).
func (mc *MultiChan) SetNoPoll(v bool) {
	for _, c := range mc.queues {
		c.NoPoll = v
	}
	if mc.urgent != mc.queues[0] {
		mc.urgent.NoPoll = v
	}
}

// --- stats -------------------------------------------------------------------

// Stats returns transport counters aggregated over every ring.
func (mc *MultiChan) Stats() Stats {
	var t Stats
	add := func(s Stats) {
		t.Upcalls += s.Upcalls
		t.SyncUpcalls += s.SyncUpcalls
		t.Downcalls += s.Downcalls
		t.Wakeups += s.Wakeups
		t.SpinPickups += s.SpinPickups
		t.Doorbells += s.Doorbells
		t.DroppedFull += s.DroppedFull
		t.SpinTimeouts += s.SpinTimeouts
		if s.MaxDownBatch > t.MaxDownBatch {
			t.MaxDownBatch = s.MaxDownBatch
		}
	}
	for _, c := range mc.queues {
		add(c.Stats())
	}
	if mc.urgent != mc.queues[0] {
		add(mc.urgent.Stats())
	}
	return t
}

// QueueStats returns queue q's own counters (per-queue doorbell and wake
// rates for the scale harness).
func (mc *MultiChan) QueueStats(q int) Stats { return mc.queues[mc.clamp(q)].Stats() }
