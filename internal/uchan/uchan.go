// Package uchan implements SUD's user channels (§3.1): the RPC transport
// between an in-kernel proxy driver and an untrusted user-space driver
// process, built on message rings in memory shared by both address spaces.
//
// The performance behaviour Figure 8 depends on is modelled explicitly:
//
//   - Asynchronous upcalls and downcalls move through shared rings without
//     entering the kernel (CostUchanEnqueue/Dequeue per message).
//   - A doorbell (one syscall) is needed only when the consumer was asleep
//     or its ring was empty (§3.1.2).
//   - The driver process services its ring from the UML idle thread: after
//     draining it polls for SpinBudget before sleeping in select; waking a
//     sleeping process costs ~4 µs of CPU plus WakeLatency of latency
//     (§5.1: "waking up the sleeping process can take as long as 4µs").
//   - Downcalls queued during a drain are batched: one doorbell flushes
//     them all (§3.1.2 "batch asynchronous downcalls").
//
// MultiChan (multi.go) generalises the channel beyond the paper to N ring
// pairs per driver process — one per simulated CPU/queue, each with its own
// doorbell coalescing and service-thread CPU account — plus a shared urgent
// lane for interrupt-class messages; a single-queue MultiChan is bit-for-bit
// the paper's transport. Rings die with their process (Kill), which is the
// transport half of the kill -9 story (§4.1): the kernel side sees clean
// errors, never a hang.
//
// Msg.Data follows one rule in both directions: every enqueue copies it
// into storage the ring owns, so a sender may reuse its buffer as soon as
// ASend, Down or DownQ returns, and a handler's Msg.Data is valid only
// while the handler runs. A handler that needs the bytes later copies them.
// Upcall payloads wait in a fifo.Bytes beside the upcall ring; downcall
// payloads are written into the batch's slot storage; and a multi-queue
// slot's payload, which the kernel must not read from shared memory twice
// (§3.1.1), is decoded into a kernel buffer from a free list that takes it
// back when the handler returns.
//
// The rings cost the host nothing in steady state, just as their virtual
// costs are fixed per message: the upcall ring and its payload FIFO grow to
// their high-water marks (never past RingSlots messages) and are then
// reused; each flushed downcall batch hands its storage, slot bytes
// included, to the next batch; the service-loop timers are owned sim.Events
// bound once in New; and driver replies travel by value. Nothing is sized
// at creation: every store grows on first use, so a driver start or
// respawn pays for none of it.
//
// A ring pair's only always-on measurements are its counters (Stats): every
// driver start and respawn builds Q+1 ring pairs, so a per-ring histogram
// would be paid on each boot whether or not anything read it. How long a
// message sat in its ring is a span-plane measurement instead: the proxies
// record the uchan.enq hop and the driver side the uchan.deq hop, when
// tracing is enabled.
//
// The package is transport only; operation codes and marshalling belong to
// the proxy driver classes in internal/proxy.
package uchan

import (
	"errors"

	"sud/internal/fifo"
	"sud/internal/sim"
)

// Msg is one message in either ring.
type Msg struct {
	// Op is the operation code; the proxy driver class defines values.
	Op uint32
	// Seq matches replies to synchronous requests.
	Seq uint32
	// Args carry small scalars and shared-memory references (bus
	// addresses + lengths) — the zero-copy path for packet payloads.
	Args [6]uint64
	// Data is small inline payload (ioctl arguments and results). It is
	// copied through the ring, unlike Args references: into ring storage
	// at enqueue, so a handler's Data is valid only during the handler.
	Data []byte

	// urgent marks interrupt-class messages (set by ASendUrgent).
	urgent bool
	// ringData marks a queued upcall whose Data waits in k2uData.
	ringData bool
}

// Tunables of the transport model.
const (
	// RingSlots bounds each direction's ring; a full upcall ring means
	// the driver is not keeping up (hung or overloaded) and the send
	// fails rather than blocking the kernel (§3.1.1).
	RingSlots = 512

	// WakeLatency is the time from doorbell to the driver process
	// running (scheduler + IPI + context switch in).
	WakeLatency sim.Duration = 1200

	// WakeCPUKernel / WakeCPUDriver split the wakeup cost between the
	// waking side (try_to_wake_up, IPI send) and the woken side (switch
	// in from the idle loop). The paper's "as long as 4 µs" (§5.1) is
	// the worst case; the common warm case on an otherwise idle sibling
	// core is well under 1 µs each way. UDP_RR's 2x CPU comes from these
	// plus the RR polling windows, which is how the paper explains it.
	WakeCPUKernel sim.Duration = 350
	WakeCPUDriver sim.Duration = 450

	// SpinBudget is the default polling window of the UML idle thread on
	// an empty ring before it sleeps in select (§4.2: upcalls are
	// handled "directly from the UML idle thread"). The window adapts:
	// see MaxSpin.
	SpinBudget sim.Duration = 2000

	// MinSpin / MaxSpin bound the adaptive polling window. The idle
	// thread widens its window toward twice the recently observed
	// message inter-arrival gap, so a request-response follow-up (the
	// transmit upcall a few µs after the receive) is caught without a
	// sleep/wake cycle, while long-idle periods sleep promptly.
	MinSpin sim.Duration = 1000
	MaxSpin sim.Duration = 8000

	// LazyDoorbell is how long a regular async upcall may sit in the
	// ring before the kernel wakes a sleeping driver for it. Interrupt
	// upcalls wake immediately (ASendUrgent); bulk traffic is instead
	// pumped by those interrupt wakes, which lets transmit upcalls batch
	// ~ITR-deep instead of paying a wakeup each (§3.1.1: "the kernel can
	// wait a short period of time to determine if the user-space driver
	// is making any progress").
	LazyDoorbell sim.Duration = 50 * sim.Microsecond
)

// Errors returned by the kernel-side API.
var (
	// ErrHung means the driver failed to respond to a synchronous upcall
	// in time; the upcall is interruptible by design (§3.1.1).
	ErrHung = errors.New("uchan: driver process not responding (interrupted)")
	// ErrDead means the driver process was killed.
	ErrDead = errors.New("uchan: driver process dead")
	// ErrRingFull means the upcall ring overflowed.
	ErrRingFull = errors.New("uchan: upcall ring full")
)

// Stats count transport events.
type Stats struct {
	Upcalls      uint64 // async kernel→driver messages
	SyncUpcalls  uint64
	Downcalls    uint64 // driver→kernel messages
	Wakeups      uint64 // driver woken from sleep
	SpinPickups  uint64 // messages caught while polling (no wake cost)
	Doorbells    uint64 // kernel notifications sent by the driver
	DroppedFull  uint64
	SpinTimeouts uint64
	// MaxDownBatch is the deepest downcall batch one doorbell flushed —
	// how hard §3.1.2 batching is working on this ring.
	MaxDownBatch uint64
}

// Served is the driver-produced message count (downcalls plus doorbells):
// the progress watermark hang detection compares across health checks. A
// ring whose backlog grows while Served stands still is wedged; one whose
// Served advances is merely saturated.
func (s Stats) Served() uint64 { return s.Downcalls + s.Doorbells }

// Driver process service states.
const (
	stateRunning = iota
	statePolling
	stateSleeping
)

// Chan is one uchan pair: the kernel-to-user and user-to-kernel rings plus
// the driver-process service loop model.
type Chan struct {
	loop *sim.Loop
	kern *sim.CPUAccount // kernel side CPU
	drv  *sim.CPUAccount // driver process CPU

	// DriverHandler services one upcall in driver-process context and
	// returns a reply for synchronous messages; false means the driver
	// produced none (a dead or wedged process). Set by SUD-UML.
	DriverHandler func(Msg) (Msg, bool)
	// KernelHandler services one downcall in kernel context. Set by the
	// proxy driver. m.Data is valid only during the call: the batch's
	// storage is reused once it has been delivered. The same holds for
	// DriverHandler's asynchronous upcalls.
	KernelHandler func(Msg)
	// OnDrainEnd, if set, runs in driver-process context after each batch
	// of upcalls is serviced, before the downcall flush. SUD-UML uses it
	// for opportunistic submit-side coalescing: device doorbell writes
	// (TX tail, SQ tail) staged while individual upcalls were handled are
	// flushed here, once per drain, instead of one MMIO write per op.
	OnDrainEnd func()

	// k2u is the upcall ring and k2uData the payloads of its messages, in
	// ring order. u2k collects the downcalls queued since the last flush;
	// spare is the storage of the last delivered batch, which the next
	// flush hands back to u2k (see flushDown).
	k2u     fifo.Queue[Msg]
	k2uData fifo.Bytes
	u2k     downBatch
	spare   downBatch

	state int
	// pollStart/pollBudget describe the current polling window; pollEv
	// ends it, wakeEv is the in-flight wake, lazyEv the deferred doorbell.
	// The three timers and drainFn are bound once in New.
	pollStart  sim.Time
	pollBudget sim.Duration
	pollEv     sim.Event
	wakeEv     sim.Event
	lazyEv     sim.Event
	drainFn    func()

	// Adaptive spin state: EWMA of drain-end→next-arrival gaps.
	drainEnd sim.Time
	gapEWMA  sim.Duration

	// lastDrainUrgent reports whether the most recent drain serviced an
	// interrupt-class message; only then does the idle thread extend its
	// polling window (expecting a kernel follow-up, e.g. the RR reply
	// transmit right after a receive interrupt).
	lastDrainUrgent bool

	// Hung simulates a malicious/buggy driver that stops servicing its
	// ring (§3.1.1 liveness attacks). Messages pile up; sync upcalls
	// fail with ErrHung.
	Hung bool

	// NoBatch disables downcall batching (§3.1.2 ablation): every Down
	// pays its own doorbell instead of riding the next flush.
	NoBatch bool
	// NoPoll disables the idle thread's polling window (§4.2 ablation):
	// the driver sleeps immediately after each drain, so every
	// follow-up message pays a full wakeup.
	NoPoll bool
	// dead: process killed.
	dead bool

	nextSeq uint32
	stats   Stats
}

// downBatch is one downcall batch: the ring entries plus the bytes their
// Data fields point into (copied payloads, or the multi-queue framing of
// downSlot).
type downBatch struct {
	msgs  []Msg
	slots []byte
}

// New creates a channel between the kernel account and a driver account.
func New(loop *sim.Loop, kern, drv *sim.CPUAccount) *Chan {
	c := &Chan{loop: loop, kern: kern, drv: drv, state: stateSleeping}
	c.pollEv.Fn = c.pollTimeout
	c.wakeEv.Fn = c.wake
	c.lazyEv.Fn = c.lazyDoorbell
	c.drainFn = c.drain
	return c
}

// Stats returns transport counters.
func (c *Chan) Stats() Stats { return c.stats }

// Pending returns the number of queued upcalls (tests, hang detection).
func (c *Chan) Pending() int { return c.k2u.Len() }

// Kill marks the driver process dead: queues are dropped and all sends fail.
func (c *Chan) Kill() {
	c.dead = true
	c.k2u, c.k2uData = fifo.Queue[Msg]{}, fifo.Bytes{}
	c.u2k, c.spare = downBatch{}, downBatch{}
	c.loop.Cancel(&c.pollEv)
	c.loop.Cancel(&c.wakeEv)
	c.loop.Cancel(&c.lazyEv)
}

// Dead reports whether the channel was killed.
func (c *Chan) Dead() bool { return c.dead }

// Poke arranges for pending upcalls to be serviced now, cancelling any
// deferred doorbell. The multi-queue urgent lane uses it to let bulk traffic
// queued on sibling rings ride an interrupt wake instead of waiting out the
// lazy-doorbell window (§3.1.2 batching, generalised to N rings).
func (c *Chan) Poke() {
	if c.dead || c.Hung || c.k2u.Len() == 0 {
		return
	}
	c.loop.Cancel(&c.lazyEv)
	c.scheduleService()
}

// --- kernel side ------------------------------------------------------------

// ASend queues an asynchronous upcall (packet transmit), copying m.Data
// into the ring. It never blocks the kernel: a full ring or dead process is
// an error the proxy translates into backpressure. A sleeping driver is not
// woken immediately — bulk upcalls ride on interrupt wakes, falling back to
// a deferred doorbell.
func (c *Chan) ASend(m Msg) error { return c.asend(m, false) }

// ASendUrgent queues an asynchronous upcall that wakes a sleeping driver
// immediately — used for forwarded device interrupts, which are the pump
// that keeps bulk traffic flowing.
func (c *Chan) ASendUrgent(m Msg) error { return c.asend(m, true) }

func (c *Chan) asend(m Msg, urgent bool) error {
	if c.dead {
		return ErrDead
	}
	if c.k2u.Len() >= RingSlots {
		c.stats.DroppedFull++
		return ErrRingFull
	}
	c.kern.Charge(sim.CostUchanEnqueue)
	// A hung driver never sees the urgency: its messages wait, unmarked.
	e := Msg{Op: m.Op, Seq: m.Seq, Args: m.Args, urgent: urgent && !c.Hung}
	if len(m.Data) > 0 {
		c.k2uData.Push(m.Data)
		e.ringData = true
	}
	c.k2u.Push(e)
	c.stats.Upcalls++
	if c.Hung {
		return nil
	}
	if urgent || c.state != stateSleeping {
		c.scheduleService()
		return nil
	}
	// Sleeping driver, non-urgent message: defer the doorbell.
	if !c.lazyEv.Pending() {
		c.loop.ArmAfter(&c.lazyEv, LazyDoorbell)
	}
	return nil
}

// lazyDoorbell fires the deferred doorbell for upcalls still unserviced.
func (c *Chan) lazyDoorbell() {
	if !c.dead && !c.Hung && c.k2u.Len() > 0 {
		c.scheduleService()
	}
}

// Send performs a synchronous upcall (ioctl, open): the caller needs the
// reply before it can return. A hung driver yields ErrHung — the paper's
// interruptible upcall (the kernel thread is unblocked with an error).
// The reply comes back by value, so a sync upcall allocates nothing.
func (c *Chan) Send(m Msg) (Msg, error) {
	if c.dead {
		return Msg{}, ErrDead
	}
	c.stats.SyncUpcalls++
	if c.Hung {
		// The user aborts (Ctrl-C) after a subjective timeout; no
		// virtual time model needed beyond the failed call itself.
		c.kern.Charge(sim.CostUchanEnqueue)
		return Msg{}, ErrHung
	}
	c.nextSeq++
	m.Seq = c.nextSeq
	c.kern.Charge(sim.CostUchanEnqueue)
	// Wake accounting: if the driver was asleep, both sides pay. The
	// round trip returns the driver to whatever it was doing, so the
	// service state is not changed here.
	if c.state == stateSleeping {
		c.stats.Wakeups++
		c.kern.Charge(WakeCPUKernel + sim.CostUchanDoorbell)
		c.drv.Charge(WakeCPUDriver)
	}
	c.drv.Charge(sim.CostUchanDequeue)
	if c.DriverHandler == nil {
		return Msg{}, ErrDead
	}
	reply, ok := c.DriverHandler(m)
	c.kern.Charge(sim.CostUchanDequeue)
	if !ok {
		return Msg{}, ErrHung
	}
	if c.OnDrainEnd != nil {
		c.OnDrainEnd()
	}
	c.flushDown()
	// Async messages may have queued while the driver serviced the sync
	// call; make sure they get drained.
	if c.k2u.Len() > 0 && !c.Hung {
		c.scheduleService()
	}
	return reply, nil
}

// scheduleService arranges for the driver process to drain its ring,
// modelling wake latency and the idle-thread polling window.
// observeGap feeds the adaptive spin estimator with the time between the
// last drain finishing and a new message arriving.
func (c *Chan) observeGap() {
	if c.drainEnd == 0 {
		return
	}
	gap := c.loop.Now() - c.drainEnd
	if gap > 50*sim.Microsecond {
		return // long idle: not a follow-up pattern
	}
	if c.gapEWMA == 0 {
		c.gapEWMA = gap
	} else {
		c.gapEWMA = (7*c.gapEWMA + gap) / 8
	}
}

// spinBudget returns the current polling window.
func (c *Chan) spinBudget() sim.Duration {
	if c.gapEWMA == 0 {
		return SpinBudget
	}
	b := 2 * c.gapEWMA
	if b < MinSpin {
		b = MinSpin
	}
	if b > MaxSpin {
		b = MaxSpin
	}
	return b
}

func (c *Chan) scheduleService() {
	switch c.state {
	case stateSleeping:
		if c.wakeEv.Pending() {
			return // wake already in flight
		}
		c.observeGap()
		c.kern.Charge(sim.CostUchanDoorbell)
		c.stats.Wakeups++
		c.kern.Charge(WakeCPUKernel)
		c.state = stateRunning
		c.loop.ArmAfter(&c.wakeEv, WakeLatency)
	case statePolling:
		// The idle thread catches the message during its spin: charge
		// the spin time actually used, no wake needed.
		c.observeGap()
		c.stats.SpinPickups++
		spin := c.loop.Now() - c.pollStart
		if budget := c.spinBudget(); spin > budget {
			spin = budget
		}
		c.drv.Charge(spin)
		c.loop.Cancel(&c.pollEv)
		c.state = stateRunning
		c.loop.After(0, c.drainFn)
	case stateRunning:
		// Already draining; the message will be picked up.
	}
}

// wake runs when a sleeping driver process has been switched in.
func (c *Chan) wake() {
	c.drv.Charge(WakeCPUDriver)
	c.drain()
}

// drain services the upcall ring in driver-process context, then polls.
func (c *Chan) drain() {
	if c.dead {
		return
	}
	c.state = stateRunning
	sawUrgent := false
	for {
		for c.k2u.Len() > 0 && !c.Hung {
			m := c.k2u.Pop()
			c.drv.Charge(sim.CostUchanDequeue)
			if m.urgent {
				sawUrgent = true
			}
			if m.ringData {
				m.Data = c.k2uData.Peek()
			}
			if c.DriverHandler != nil {
				c.DriverHandler(m)
			}
			// A handler that killed the process took the FIFO with it.
			if m.ringData && !c.dead {
				c.k2uData.Pop()
			}
		}
		if c.OnDrainEnd != nil {
			c.OnDrainEnd()
		}
		c.flushDown()
		// Downcall handling in the kernel may have queued fresh upcalls
		// (e.g. netif_rx → TCP ACK → transmit); service them before
		// going idle.
		if c.k2u.Len() == 0 || c.Hung || c.dead {
			break
		}
	}
	// Enter the polling window before sleeping.
	c.lastDrainUrgent = sawUrgent
	c.drainEnd = c.loop.Now()
	if c.NoPoll {
		c.state = stateSleeping
		return
	}
	c.state = statePolling
	c.pollStart = c.loop.Now()
	c.pollBudget = MinSpin
	if sawUrgent {
		// Device work often triggers prompt kernel follow-ups (the RR
		// reply); poll longer after interrupt drains.
		c.pollBudget = c.spinBudget()
	}
	c.loop.ArmAfter(&c.pollEv, c.pollBudget)
}

// pollTimeout ends an idle polling window: the driver goes to sleep.
func (c *Chan) pollTimeout() {
	c.stats.SpinTimeouts++
	c.drv.Charge(c.pollBudget)
	c.state = stateSleeping
}

// --- driver side ------------------------------------------------------------

// Down queues an asynchronous downcall (netif_rx, carrier change), copying
// m.Data into the batch's own storage. Downcalls batch: nothing reaches the
// kernel until flushDown, which the service loop calls after draining
// upcalls — or which the SUD-UML runtime triggers explicitly with Flush for
// driver-initiated work.
func (c *Chan) Down(m Msg) error {
	if err := c.downRoom(); err != nil {
		return err
	}
	e := Msg{Op: m.Op, Seq: m.Seq, Args: m.Args, urgent: m.urgent}
	if len(m.Data) > 0 {
		start := len(c.u2k.slots)
		c.u2k.slots = append(c.u2k.slots, m.Data...)
		end := len(c.u2k.slots)
		e.Data = c.u2k.slots[start:end:end]
	}
	c.enqueueDown(e)
	return nil
}

// downSlot queues m for the kernel in the codec.go framing, tagged with
// queue q: the slot bytes are written into the batch's own storage, which
// is recycled once the batch is delivered.
func (c *Chan) downSlot(q int, m Msg) error {
	if err := c.downRoom(); err != nil {
		return err
	}
	start := len(c.u2k.slots)
	c.u2k.slots = AppendSlot(c.u2k.slots, q, m)
	end := len(c.u2k.slots)
	c.enqueueDown(Msg{Op: opEncodedSlot, Data: c.u2k.slots[start:end:end]})
	return nil
}

// downRoom reports whether a downcall can be queued.
func (c *Chan) downRoom() error {
	if c.dead {
		return ErrDead
	}
	if len(c.u2k.msgs) >= RingSlots {
		c.stats.DroppedFull++
		return ErrRingFull
	}
	return nil
}

func (c *Chan) enqueueDown(m Msg) {
	c.drv.Charge(sim.CostUchanEnqueue)
	c.u2k.msgs = append(c.u2k.msgs, m)
	c.stats.Downcalls++
	if c.NoBatch {
		c.flushDown()
	}
}

// Flush delivers all queued downcalls to the kernel handler, costing one
// doorbell for the whole batch.
func (c *Chan) Flush() { c.flushDown() }

// flushDown delivers the queued batch. Its storage comes back once
// delivered, so steady-state batching allocates nothing. The kernel handler
// may re-enter (a synchronous Send flushes the downcalls its upcall
// produced): the nested flush delivers them at once, in the middle of this
// batch, and the batch it swaps in is fresh, because spare is out on loan
// until this flush returns. A batch's storage returns as spare, or — when
// nothing was queued into fresh storage meanwhile — as the next batch, so
// nested flushes lose none.
func (c *Chan) flushDown() {
	if len(c.u2k.msgs) == 0 || c.dead {
		return
	}
	c.stats.Doorbells++
	c.drv.Charge(sim.CostUchanDoorbell)
	batch := c.u2k
	c.u2k, c.spare = c.spare, downBatch{}
	if uint64(len(batch.msgs)) > c.stats.MaxDownBatch {
		c.stats.MaxDownBatch = uint64(len(batch.msgs))
	}
	for _, m := range batch.msgs {
		c.kern.Charge(sim.CostUchanDequeue)
		if c.KernelHandler != nil {
			c.KernelHandler(m)
		}
	}
	clear(batch.msgs)
	done := downBatch{msgs: batch.msgs[:0], slots: batch.slots[:0]}
	if cap(c.u2k.msgs) == 0 {
		c.u2k = done
	} else {
		c.spare = done
	}
}

// SDown performs a synchronous downcall: the driver needs the kernel's
// reply before continuing (DMA allocation, PCI config access). The kernel
// copies results directly into the caller's message buffer (§3.1), so no
// reply message is queued.
func (c *Chan) SDown(m Msg, handle func(Msg) Msg) (Msg, error) {
	if c.dead {
		return Msg{}, ErrDead
	}
	// One syscall-ish round trip.
	c.drv.Charge(sim.CostUchanEnqueue + sim.CostUchanDoorbell)
	c.kern.Charge(sim.CostUchanDequeue)
	out := handle(m)
	c.drv.Charge(sim.CostUchanDequeue)
	return out, nil
}
