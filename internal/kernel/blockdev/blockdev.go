// Package blockdev is the kernel block layer: the trusted core that owns
// block devices registered by drivers (RegisterBlockDev), splits each
// device's submission state into per-queue contexts — one per hardware
// queue pair the driver exposes — and offers single-block ReadAt/WriteAt
// with software request queues and per-queue stall/wake, the blk-mq shape
// of netstack's per-queue interface contexts. It trusts nothing about the
// driver's liveness: a full hardware queue parks requests in that queue's
// software queue only, and completions are matched by kernel-allocated tag,
// so a driver cannot complete a request it was never given (§3.1's
// defensive proxy discipline applied to storage).
//
// The core is also where shadow-driver recovery (§2, §5.2: restarting a
// crashed untrusted driver) lands for storage. A device with an attached
// shadow (internal/kernel/shadow) logs every dispatched request; when its
// driver process dies under supervision, BeginRecovery parks — instead of
// fails — both the in-flight and newly submitted requests, bumps the
// device's epoch (so the dead incarnation's proxy can no longer complete
// anything), and marks the device adoptable. The restarted driver's
// registration adopts the existing device object — application handles
// survive — and CompleteRecovery replays the shadow's in-flight log in
// per-queue submission order under the original tags before releasing the
// parked queues. Applications observe added latency, never an error.
package blockdev

import (
	"fmt"

	"sud/internal/drivers/api"
	"sud/internal/fifo"
	"sud/internal/flatmap"
	"sud/internal/kernel/shadow"
	"sud/internal/sim"
	"sud/internal/trace"
)

// Path costs of the block core itself, per request (see
// internal/sim/costs.go for the calibration rationale).
const (
	// CostSubmitPath is request allocation, tag assignment and queue
	// bookkeeping on submission.
	CostSubmitPath sim.Duration = 1000
	// CostCompletePath is completion matching and callback dispatch.
	CostCompletePath sim.Duration = 800
)

// MaxQueuedPerQueue bounds one queue context's software request queue; past
// it submissions fail with ErrCongested and the caller must back off, so a
// stalled hardware queue cannot pin unbounded kernel memory.
const MaxQueuedPerQueue = 256

// Errors returned by the submission path.
var (
	ErrNameTaken  = fmt.Errorf("blockdev: device name already registered")
	ErrOutOfRange = fmt.Errorf("blockdev: LBA out of range")
	ErrBadSize    = fmt.Errorf("blockdev: payload is not one block")
	ErrDown       = fmt.Errorf("blockdev: device is down")
	ErrCongested  = fmt.Errorf("blockdev: request queue full")
	ErrBusy       = fmt.Errorf("blockdev: device has requests outstanding")
)

// Manager is the kernel's block core.
type Manager struct {
	Loop *sim.Loop
	Acct *sim.CPUAccount // the kernel CPU account

	// Trace is the machine's span plane (kernel.New threads it from
	// hw.Machine); nil-safe, and free unless spans are enabled.
	Trace *trace.Tracer

	devs map[string]*Dev

	// adopting holds devices whose driver died under supervision: they are
	// waiting for the restarted driver's registration to adopt them.
	adopting map[string]*Dev

	// standbys holds hot-standby drivers pre-registered for a live device:
	// the failover half of adoption. The geometry check that Register's
	// adopt path performs at restart time runs here at arm time instead,
	// so promotion after a kill is a table move, not a probe.
	standbys map[string]api.BlockDevice
}

// New returns an empty block core charging CPU to acct.
func New(loop *sim.Loop, acct *sim.CPUAccount) *Manager {
	return &Manager{Loop: loop, Acct: acct,
		devs: make(map[string]*Dev), adopting: make(map[string]*Dev),
		standbys: make(map[string]api.BlockDevice)}
}

// Register adds a block device for a driver. Names must be unique (proxy
// drivers retry with the kernel's name template, like netdevs). If a device
// is awaiting adoption (its supervised driver died) and the registered
// geometry matches, the existing device object is adopted instead: the new
// driver backs the same Dev every application handle already points at.
func (m *Manager) Register(name string, geom api.BlockGeometry, drv api.BlockDevice) (*Dev, error) {
	if d := m.adopt(name, geom); d != nil {
		d.drv = drv
		return d, nil
	}
	if _, dup := m.devs[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrNameTaken, name)
	}
	if geom.BlockSize <= 0 || geom.Blocks == 0 {
		return nil, fmt.Errorf("blockdev: bad geometry %+v", geom)
	}
	d := &Dev{Name: name, Geom: geom, mgr: m, drv: drv}
	nq := drv.Queues()
	if nq < 1 {
		nq = 1
	}
	d.queues = make([]QueueCtx, nq)
	for q := range d.queues {
		d.queues[q].ID = q
	}
	d.lat = make([]trace.Hist, nq)
	m.devs[name] = d
	return d, nil
}

// Unregister removes a device (driver removal / process death). Requests
// still in flight complete with ErrDown so no caller waits forever on a
// dead driver. Unregistering a device mid-recovery aborts the recovery:
// parked and logged requests fail the same way, the shadow log is dropped,
// and no later registration can adopt the dead device.
func (m *Manager) Unregister(name string) {
	d, ok := m.devs[name]
	if !ok {
		return
	}
	delete(m.devs, name)
	delete(m.adopting, name)
	delete(m.standbys, name)
	d.up = false
	d.recovering = false
	d.replay = nil
	if d.shadow != nil {
		d.shadow.Reset()
	}
	// Barriers fail like requests: a dispatched flush fails through its
	// in-flight entry below; an undispatched or queued one fails here.
	if b := d.barrier; b != nil && !b.dispatched {
		d.barrier = nil
		d.endFlush(b, ErrDown)
	}
	for d.flushQ.Len() > 0 {
		d.endFlush(d.flushQ.Pop(), ErrDown)
	}
	for {
		_, r, ok := d.inflight.Pop()
		if !ok {
			break
		}
		r.cb.call(nil, ErrDown)
	}
	for q := range d.queues {
		qc := &d.queues[q]
		qc.recovering = false
		qc.drainLeft = 0
		for qc.waiting.Len() > 0 {
			qc.waiting.Pop().cb.call(nil, ErrDown)
		}
	}
}

// BeginRecovery marks name's device as recovering: its driver process died
// under supervision. From this instant until CompleteRecovery, submissions
// park in the per-queue software queues instead of failing, in-flight
// requests stay tabled awaiting replay, and the device epoch is bumped so
// completions still signed by the dead incarnation's proxy are rejected.
// The device is entered into the adoption table for the restarted driver's
// registration. A second death before anyone adopted changes nothing
// (idempotent); a death AFTER adoption — the restarted incarnation dying
// mid-replay or failing its recovery open — re-enters the adoption table
// and bumps the epoch again, cutting off the incarnation that just died.
func (m *Manager) BeginRecovery(name string) (*Dev, error) {
	d, ok := m.devs[name]
	if !ok {
		return nil, fmt.Errorf("blockdev: no device %q to recover", name)
	}
	if _, pending := m.adopting[name]; pending && d.recovering {
		return d, nil // second death with no incarnation bound in between
	}
	d.recovering = true
	d.epoch++
	for q := range d.queues {
		// A device-wide recovery subsumes any surgical one in progress:
		// the full replay owns every queue's drain leg.
		d.queues[q].stalled = true
		d.queues[q].recovering = false
		d.queues[q].drainLeft = 0
	}
	m.adopting[name] = d
	waiting := 0
	for q := range d.queues {
		waiting += d.queues[q].waiting.Len()
	}
	d.Flight.Recordf(trace.FPark, "%s epoch %d: %d in flight, %d queued parked",
		name, d.epoch, d.inflight.Len(), waiting)
	return d, nil
}

// adopt matches a registration against the adoption table by exact name;
// the mirrored geometry must also agree — a restarted driver reporting
// different media is not the same device, and must not inherit its request
// log. There is deliberately no geometry-only fallback: geometry identifies
// a device model, not a device, and an unrelated same-sized disk registered
// during the adoption window must not inherit another device's in-flight
// requests. A recovering device renamed by the uniquing template is still
// found, because the proxy's registration retry walks the template names.
func (m *Manager) adopt(name string, geom api.BlockGeometry) *Dev {
	d, ok := m.adopting[name]
	if !ok || d.Geom != geom {
		return nil
	}
	delete(m.adopting, name)
	d.Flight.Recordf(trace.FAdopt, "%s epoch %d adopted by restarted driver", name, d.epoch)
	return d
}

// RegisterStandby pre-registers a hot-standby driver for the named live
// device — before any kill. The identity check that protects adoption runs
// now: the standby must mirror the device's exact geometry, so a failover
// can never hand one device's request log to a driver for different media.
// One standby may be armed per device at a time.
func (m *Manager) RegisterStandby(name string, geom api.BlockGeometry, drv api.BlockDevice) error {
	d, ok := m.devs[name]
	if !ok {
		return fmt.Errorf("blockdev: no device %q to stand by for", name)
	}
	if d.Geom != geom {
		return fmt.Errorf("blockdev: standby geometry %+v does not match %s's %+v",
			geom, name, d.Geom)
	}
	if _, dup := m.standbys[name]; dup {
		return fmt.Errorf("blockdev: device %q already has a standby", name)
	}
	m.standbys[name] = drv
	return nil
}

// UnregisterStandby disarms a pre-registered standby.
func (m *Manager) UnregisterStandby(name string) { delete(m.standbys, name) }

// PromoteStandby binds the pre-registered standby driver to name's
// recovering device: the failover half of adoption. The device must be
// awaiting adoption (its driver died under supervision); the standby's
// identity was verified when it registered, before the kill.
func (m *Manager) PromoteStandby(name string) (*Dev, error) {
	drv, ok := m.standbys[name]
	if !ok {
		return nil, fmt.Errorf("blockdev: no standby armed for %q", name)
	}
	d, ok := m.adopting[name]
	if !ok {
		return nil, fmt.Errorf("blockdev: device %q is not awaiting adoption", name)
	}
	delete(m.standbys, name)
	delete(m.adopting, name)
	d.drv = drv
	d.Flight.Recordf(trace.FAdopt, "%s epoch %d adopted by promoted standby", name, d.epoch)
	return d, nil
}

// Quarantine bars name's driver while letting the device object survive:
// supervision convicted (or gave up on) the driver, so every parked,
// in-flight and logged request fails with ErrDown instead of waiting for a
// restart that will never come, the shadow log is dropped, and no later
// registration can adopt the device. Unlike Unregister the device stays
// visible — down, driverless, for the admin — and its epoch is bumped once
// more so nothing the barred incarnation still holds can reach it.
func (m *Manager) Quarantine(name string) {
	d, ok := m.devs[name]
	if !ok {
		return
	}
	delete(m.adopting, name)
	delete(m.standbys, name)
	d.up = false
	d.recovering = false
	d.epoch++
	d.replay = nil
	if d.shadow != nil {
		d.shadow.Reset()
	}
	// A dispatched flush fails through its in-flight entry below; an
	// undispatched or queued one fails here (same discipline as Unregister).
	if b := d.barrier; b != nil && !b.dispatched {
		d.barrier = nil
		d.endFlush(b, ErrDown)
	}
	for d.flushQ.Len() > 0 {
		d.endFlush(d.flushQ.Pop(), ErrDown)
	}
	for {
		_, r, ok := d.inflight.Pop()
		if !ok {
			break
		}
		r.cb.call(nil, ErrDown)
	}
	d.barrier = nil
	for q := range d.queues {
		qc := &d.queues[q]
		qc.recovering = false
		qc.drainLeft = 0
		for qc.waiting.Len() > 0 {
			qc.waiting.Pop().cb.call(nil, ErrDown)
		}
	}
}

// Dev looks up a device by name.
func (m *Manager) Dev(name string) (*Dev, error) {
	d, ok := m.devs[name]
	if !ok {
		return nil, fmt.Errorf("blockdev: no device %q", name)
	}
	return d, nil
}

// QueueCtx is one per-queue context of a block device: its own stall state,
// its own software request queue, and its own counters. Splitting this
// state per queue is what lets one full hardware queue park only the
// requests steered onto it — sibling queues keep submitting.
type QueueCtx struct {
	ID int

	stalled bool
	waiting fifo.Queue[queued]

	// Surgical recovery state: the supervisor quarantined this one queue
	// (its DMA sub-domain revoked) while siblings keep flowing. Epoch is
	// the queue's own incarnation counter — completions the proxy stamps
	// with a dead incarnation's epoch are rejected without touching the
	// device-wide epoch. recovering parks this queue's submissions only;
	// drainBelow/drainLeft track the queue's own drain leg.
	Epoch      uint64
	recovering bool
	drainBelow uint64
	drainLeft  int

	// Per-queue traffic counters. Replays counts requests re-submitted to
	// a restarted driver by shadow recovery.
	Reads, Writes, Completions, Errors, Replays uint64

	// OnWake, if set, runs when this queue is woken; when unset the
	// device-level OnWake hook fires instead.
	OnWake func()
}

// Stalled reports the queue's backpressure state (tests and pacing logic).
func (qc *QueueCtx) Stalled() bool { return qc.stalled }

// Waiting reports the software queue depth.
func (qc *QueueCtx) Waiting() int { return qc.waiting.Len() }

// done is a request's completion callback: a read's receives the payload,
// a write's or a flush's only the verdict. Keeping both shapes spares every
// write a wrapper closure.
type done struct {
	read  func([]byte, error)
	write func(error)
}

func (c done) call(data []byte, err error) {
	if c.read != nil {
		c.read(data, err)
		return
	}
	c.write(err)
}

// queued is one parked submission.
type queued struct {
	req api.BlockRequest
	cb  done
}

// request is one in-flight request awaiting completion. The in-flight table
// holds it by value: one heap object per request would cost more than the
// map copies it saves.
type request struct {
	q     int
	write bool
	flush bool
	// at is the dispatch stamp; Complete turns it into the per-queue
	// end-to-end latency sample (always-on metrics plane, zero cost).
	at sim.Time
	cb done
	// data is the block core's own copy of a write payload (nil for reads
	// and flushes), handed back to the device's free list on completion.
	data []byte
}

// flushOp is one Flush() barrier moving through the device: queued, then
// active (new submissions park), then dispatched (the driver holds the
// flush; every request dispatched before it has already completed). Ops
// are recycled through Dev.flushFree; done, the dispatched flush's
// completion, is bound once per op.
type flushOp struct {
	d          *Dev
	cb         func(error)
	dispatched bool
	done       func(error)
}

func (b *flushOp) complete(err error) { b.d.finishBarrier(b, err) }

// Dev is one registered block device. It implements api.BlockKernel — it is
// what RegisterBlockDev hands back to the driver.
type Dev struct {
	Name string
	Geom api.BlockGeometry

	mgr *Manager
	drv api.BlockDevice
	up  bool

	// Shadow recovery state: the request log (attached by the supervisor),
	// the recovering flag (park, don't fail), the per-queue replay
	// schedules built at CompleteRecovery, and the epoch — incremented on
	// every driver death, so a proxy bound to a dead incarnation can be
	// told apart from the adopted one.
	shadow     *shadow.Block
	recovering bool
	epoch      uint64
	replay     []fifo.Queue[shadow.PendingBlock]

	queues   []QueueCtx
	inflight flatmap.Map[uint64, request]
	nextTag  uint64

	// free holds write-payload buffers (Geom.BlockSize bytes each) whose
	// requests completed: the next WriteAt copies into one instead of
	// allocating. A buffer enters only from Complete, once neither the
	// shadow log nor a replay schedule can still reference it.
	free [][]byte

	// Barrier state: one flush barrier is active at a time; later Flush()
	// calls queue behind it. While a barrier is active every new
	// submission parks in its queue's software queue, and the flush
	// itself is dispatched only once the in-flight table drains — so a
	// flush completion means every write acked before it is durable, in
	// every queue (the §3.1.2 guard family's durability member).
	barrier   *flushOp
	flushQ    fifo.Queue[*flushOp]
	flushFree []*flushOp

	// OnWake, if set, runs when the driver wakes a queue with no
	// queue-level hook (backpressure release for the benchmark loop).
	OnWake func()

	// Flushes counts completed flush barriers; FUAWrites counts
	// force-unit-access writes dispatched to the driver.
	Flushes   uint64
	FUAWrites uint64

	// BadCompletions counts driver completions with unknown or reused
	// tags — a confused or malicious driver, dropped and counted.
	BadCompletions uint64

	// lat holds per-queue end-to-end latency histograms (dispatch →
	// completion delivery), always on.
	lat []trace.Hist

	// Flight is the device's flight recorder (shared with its supervisor
	// when supervised, nil otherwise). The block core records the
	// park/adopt/replay/drain legs of a recovery into it.
	Flight *trace.Flight

	// drainBelow/drainLeft track the drain leg of a recovery: requests
	// with tags below drainBelow were dispatched to the incarnation that
	// died; when the last of them completes, the recovery has drained.
	drainBelow uint64
	drainLeft  int
}

var _ api.BlockKernel = (*Dev)(nil)
var _ api.RecoverableDevice = (*Dev)(nil)

// NumQueues reports the device's queue-context count.
func (d *Dev) NumQueues() int { return len(d.queues) }

// AttachShadow arms shadow recovery: from now on every dispatched request is
// logged until its completion is delivered. The supervisor attaches the
// shadow when it takes ownership of the device's driver process.
func (d *Dev) AttachShadow(s *shadow.Block) { d.shadow = s }

// Shadow returns the attached shadow (nil when unsupervised).
func (d *Dev) Shadow() *shadow.Block { return d.shadow }

// Epoch reports the device's driver incarnation epoch; it increments on
// every BeginRecovery. Proxies record the epoch they bound at and reject
// their own late completions once it moves on.
func (d *Dev) Epoch() uint64 { return d.epoch }

// Recovering reports whether the device is between driver incarnations.
func (d *Dev) Recovering() bool { return d.recovering }

// QueueEpoch reports queue q's own incarnation epoch; it increments on
// every BeginQueueRecovery. The proxy mirrors it and stamps it on the
// completions it forwards, so a surgically quarantined queue's stale
// completions are told apart from its re-armed incarnation's.
func (d *Dev) QueueEpoch(q int) uint64 { return d.queues[d.clampQ(q)].Epoch }

// QueueRecovering reports whether queue q alone is parked by a surgical
// recovery.
func (d *Dev) QueueRecovering(q int) bool { return d.queues[d.clampQ(q)].recovering }

// Queue returns queue q's context (clamped), for per-queue hooks and stats.
func (d *Dev) Queue(q int) *QueueCtx { return &d.queues[d.clampQ(q)] }

// QueueLatency returns queue q's end-to-end latency histogram (dispatch →
// completion delivery). Snapshot by value for windowed measurements.
func (d *Dev) QueueLatency(q int) *trace.Hist { return &d.lat[d.clampQ(q)] }

func (d *Dev) clampQ(q int) int {
	if q < 0 || q >= len(d.queues) {
		return 0
	}
	return q
}

// Up brings the device online (→ driver Open: queue creation, IRQ).
func (d *Dev) Up() error {
	if d.up {
		return nil
	}
	if err := d.drv.Open(); err != nil {
		return fmt.Errorf("blockdev: open %s: %w", d.Name, err)
	}
	d.up = true
	return nil
}

// Down quiesces the device (→ driver Stop). It fails with ErrBusy, and
// changes nothing, while any request is in flight or parked or a flush
// barrier is active or queued: the stopped driver would never complete
// them. Callers let the device drain first.
func (d *Dev) Down() error {
	if !d.up {
		return nil
	}
	busy := d.inflight.Len() > 0 || d.barrier != nil || d.flushQ.Len() > 0
	for q := range d.queues {
		busy = busy || d.queues[q].waiting.Len() > 0
	}
	if busy {
		return ErrBusy
	}
	d.up = false
	return d.drv.Stop()
}

// IsUp reports admin state.
func (d *Dev) IsUp() bool { return d.up }

// InFlight reports requests submitted but not yet completed.
func (d *Dev) InFlight() int { return d.inflight.Len() }

// QueueForLBA is the submission steering hash: the queue a block lands on
// among nq queues. Fibonacci hashing spreads sequential LBAs uniformly, so
// a striding reader exercises every queue pair — the storage analogue of
// spreading flows by transport-port hash.
func QueueForLBA(lba uint64, nq int) int {
	if nq <= 1 {
		return 0
	}
	return int((lba * 0x9E3779B97F4A7C15 >> 32) % uint64(nq))
}

// ReadAt reads the block at lba, steering by LBA hash; cb receives the
// payload (or an error) when the driver completes. The payload is valid
// only until cb returns: the proxy's guard-copy buffer, a trusted driver's
// DMA slot or a flipped page is reused after that, so a caller that keeps
// the bytes copies them.
func (d *Dev) ReadAt(lba uint64, cb func([]byte, error)) error {
	return d.ReadAtQ(lba, QueueForLBA(lba, len(d.queues)), cb)
}

// ReadAtQ reads the block at lba on an explicit queue. As with ReadAt, the
// payload cb receives is valid only until cb returns.
func (d *Dev) ReadAtQ(lba uint64, q int, cb func([]byte, error)) error {
	return d.submit(q, api.BlockRequest{LBA: lba}, done{read: cb})
}

// WriteAt writes one block (exactly BlockSize bytes) at lba, steering by
// LBA hash; cb receives nil or an error on completion. On a device with a
// volatile write cache the completion means accepted, not durable — call
// Flush (or use WriteAtFUA) for durability.
func (d *Dev) WriteAt(lba uint64, data []byte, cb func(error)) error {
	return d.writeAtQ(lba, QueueForLBA(lba, len(d.queues)), data, false, cb)
}

// WriteAtQ writes one block at lba on an explicit queue.
func (d *Dev) WriteAtQ(lba uint64, q int, data []byte, cb func(error)) error {
	return d.writeAtQ(lba, q, data, false, cb)
}

// WriteAtFUA writes one block with force-unit-access semantics: the
// completion is delivered only once the payload is durable, past any
// volatile device cache (REQ_FUA).
func (d *Dev) WriteAtFUA(lba uint64, data []byte, cb func(error)) error {
	return d.writeAtQ(lba, QueueForLBA(lba, len(d.queues)), data, true, cb)
}

func (d *Dev) writeAtQ(lba uint64, q int, data []byte, fua bool, cb func(error)) error {
	if len(data) != d.Geom.BlockSize {
		return ErrBadSize
	}
	// The block core owns the payload for the request's lifetime, like
	// the page cache owns a bio's pages: the caller may reuse data as soon
	// as this returns, and the driver and the shadow log share buf.
	buf := d.payloadBuf()
	copy(buf, data)
	d.mgr.Acct.Charge(sim.Copy(len(data)))
	return d.submit(q, api.BlockRequest{Write: true, LBA: lba, Data: buf, FUA: fua}, done{write: cb})
}

// Flush issues a write barrier (REQ_OP_FLUSH): cb runs once every write
// acked before this call is durable on media. Ordering is strict — new
// submissions park behind the barrier, and the flush command reaches the
// driver only after every previously dispatched request (on every queue)
// has completed, so a driver cannot be handed a flush while writes it has
// not acked are still in flight. Flushes issued while one is active queue
// behind it in order.
func (d *Dev) Flush(cb func(error)) error {
	if !d.up {
		return ErrDown
	}
	d.mgr.Acct.Charge(CostSubmitPath)
	var b *flushOp
	if n := len(d.flushFree); n > 0 {
		b = d.flushFree[n-1]
		d.flushFree = d.flushFree[:n-1]
	} else {
		b = &flushOp{d: d}
		b.done = b.complete
	}
	b.cb = cb
	d.flushQ.Push(b)
	d.pumpBarrier()
	return nil
}

// pumpBarrier advances the barrier state machine: activate the next queued
// flush, and once the in-flight table is drained hand the flush itself to
// the driver on queue 0 under its own tag (logged in the shadow like any
// request, so a driver death mid-barrier replays it in order).
func (d *Dev) pumpBarrier() {
	if d.recovering {
		return
	}
	if d.barrier == nil {
		if d.flushQ.Len() == 0 {
			return
		}
		d.barrier = d.flushQ.Pop()
	}
	b := d.barrier
	if b.dispatched || d.inflight.Len() != 0 {
		return
	}
	b.dispatched = true
	if !d.dispatch(0, api.BlockRequest{Flush: true}, done{write: b.done}) {
		// The driver refused the flush (queue full): retried on the next
		// wake.
		b.dispatched = false
	}
}

// finishBarrier completes one barrier: deliver the verdict, release the
// parked queues, then start any queued successor.
func (d *Dev) finishBarrier(b *flushOp, err error) {
	if d.barrier == b {
		d.barrier = nil
	}
	if err == nil {
		d.Flushes++
	}
	d.endFlush(b, err)
	if !d.up || d.recovering {
		return
	}
	for q := range d.queues {
		d.WakeQueueQ(q)
	}
	d.pumpBarrier()
}

// endFlush retires barrier b with verdict err. The callback is read out
// and the op goes back on the free list before the callback runs, so a
// Flush issued from inside it may take the same op again.
func (d *Dev) endFlush(b *flushOp, err error) {
	cb := b.cb
	b.cb, b.dispatched = nil, false
	d.flushFree = append(d.flushFree, b)
	cb(err)
}

// submit validates, tags and dispatches one request; a stalled or full
// hardware queue — a device whose driver is being restarted, or one with a
// flush barrier in flight — parks it in that queue's software queue.
func (d *Dev) submit(q int, req api.BlockRequest, cb done) error {
	if !d.up {
		return ErrDown
	}
	if req.LBA >= d.Geom.Blocks {
		return ErrOutOfRange
	}
	q = d.clampQ(q)
	qc := &d.queues[q]
	d.mgr.Acct.Charge(CostSubmitPath)
	if qc.stalled || qc.recovering || d.recovering || d.barrier != nil {
		if qc.waiting.Len() >= MaxQueuedPerQueue {
			return ErrCongested
		}
		qc.waiting.Push(queued{req: req, cb: cb})
		return nil
	}
	if !d.dispatch(q, req, cb) {
		qc.stalled = true
		qc.waiting.Push(queued{req: req, cb: cb})
	}
	return nil
}

// dispatch hands one request to the driver; it reports false when the
// hardware queue refused it (park and stall).
func (d *Dev) dispatch(q int, req api.BlockRequest, cb done) bool {
	qc := &d.queues[q]
	req.Tag = d.nextTag
	d.nextTag++
	d.inflight.Put(req.Tag, request{q: q, write: req.Write, flush: req.Flush,
		at: d.mgr.Loop.Now(), cb: cb, data: req.Data})
	d.mgr.Trace.Event(trace.ClassBlk, q, req.Tag, trace.HopSubmit)
	if err := d.drv.Submit(q, req); err != nil {
		d.inflight.Delete(req.Tag)
		return false
	}
	// A driver may complete synchronously inside Submit; the log must not
	// keep (and later replay) a request whose completion was delivered.
	if d.inflight.Has(req.Tag) && d.shadow != nil {
		d.shadow.RecordSubmit(q, req)
	}
	switch {
	case req.Flush:
		// Barriers are counted on completion (d.Flushes), not per queue.
	case req.Write:
		qc.Writes++
		if req.FUA {
			d.FUAWrites++
		}
	default:
		qc.Reads++
	}
	return true
}

// --- api.BlockKernel (driver → kernel) ---------------------------------------

// Complete implements api.BlockKernel: request tag finished on queue q. For
// trusted in-kernel drivers data is the driver's own buffer; the SUD proxy
// calls the same entry after validating and guard-copying the untrusted
// reference.
func (d *Dev) Complete(q int, tag uint64, err error, data []byte) {
	r, ok := d.inflight.Delete(tag)
	if !ok {
		d.BadCompletions++
		return
	}
	if d.shadow != nil {
		d.shadow.RecordComplete(tag)
	}
	if r.data != nil && !d.replayPending() {
		d.free = append(d.free, r.data)
	}
	qc := &d.queues[d.clampQ(q)]
	qc.Completions++
	d.mgr.Acct.Charge(CostCompletePath)
	d.lat[d.clampQ(q)].Record(d.mgr.Loop.Now() - r.at)
	d.mgr.Trace.Event(trace.ClassBlk, q, tag, trace.HopComplete)
	if d.drainLeft > 0 && tag < d.drainBelow {
		d.drainLeft--
		if d.drainLeft == 0 {
			d.Flight.Recordf(trace.FDrain, "%s epoch %d: all pre-death requests completed",
				d.Name, d.epoch)
		}
	}
	// Surgical recoveries drain per queue: the owning queue's context, not
	// the one the driver claims to complete on, tracks its own leg.
	if rqc := &d.queues[r.q]; rqc.drainLeft > 0 && tag < rqc.drainBelow {
		rqc.drainLeft--
		if rqc.drainLeft == 0 {
			d.Flight.Recordf(trace.FDrain, "%s q%d epoch %d: all pre-quarantine requests completed",
				d.Name, r.q, rqc.Epoch)
		}
	}
	if err == nil && !r.write && !r.flush && len(data) != d.Geom.BlockSize {
		err = fmt.Errorf("blockdev: short read (%d bytes)", len(data))
	}
	if err != nil {
		qc.Errors++
		r.cb.call(nil, err)
	} else {
		r.cb.call(data, nil)
	}
	// The in-flight table draining may be what an active barrier is
	// waiting for.
	if d.barrier != nil && !d.barrier.dispatched {
		d.pumpBarrier()
	}
}

// WakeQueueQ implements api.BlockKernel: queue q's hardware queue regained
// space; drain its software queue and notify the submitter. Replays left
// over from a recovery go first — they carry the oldest tags and must reach
// the restarted driver before any parked request that was submitted after
// them.
func (d *Dev) WakeQueueQ(q int) {
	qc := &d.queues[d.clampQ(q)]
	if d.recovering || qc.recovering {
		// A wake between driver incarnations (a stale proxy, or a death
		// racing the doorbell) must not release parked requests into a
		// driver that no longer exists — nor into a surgically quarantined
		// queue whose DMA sub-domain is revoked.
		return
	}
	if !d.drainReplay(qc.ID) {
		qc.stalled = true
		return
	}
	if d.barrier != nil {
		// Parked submissions stay parked behind the in-flight barrier;
		// the wake may be the headroom a refused flush dispatch needed.
		d.pumpBarrier()
		return
	}
	qc.stalled = false
	for qc.waiting.Len() > 0 {
		w := qc.waiting.Peek()
		if !d.dispatch(qc.ID, w.req, w.cb) {
			qc.stalled = true
			return
		}
		qc.waiting.Pop()
	}
	if h := qc.OnWake; h != nil {
		h()
		return
	}
	if d.OnWake != nil {
		d.OnWake()
	}
}

// drainReplay feeds queue q's remaining replay schedule to the (restarted)
// driver in original submission order, under the original tags — their
// callbacks are still tabled in d.inflight. It reports false if the driver
// refused a replay (queue full: continue on the next wake).
func (d *Dev) drainReplay(q int) bool {
	if d.replay == nil || q >= len(d.replay) {
		return true
	}
	for d.replay[q].Len() > 0 {
		d.mgr.Acct.Charge(CostSubmitPath)
		if err := d.drv.Submit(q, d.replay[q].Peek().Req); err != nil {
			return false
		}
		d.replay[q].Pop()
		d.queues[q].Replays++
		if d.shadow != nil {
			d.shadow.Replayed++
		}
	}
	return true
}

// replayPending reports whether a replay schedule still holds requests not
// yet handed to the restarted driver. Their payloads are live, and a
// completion delivered early (a driver completing a tag it was never
// re-given) must not recycle a buffer the replay will still submit.
func (d *Dev) replayPending() bool {
	for q := range d.replay {
		if d.replay[q].Len() > 0 {
			return true
		}
	}
	return false
}

// payloadBuf returns a BlockSize buffer for a write payload: a recycled one
// when any is free.
func (d *Dev) payloadBuf() []byte {
	if n := len(d.free); n > 0 {
		b := d.free[n-1]
		d.free = d.free[:n-1]
		return b
	}
	return make([]byte, d.Geom.BlockSize)
}

// CompleteRecovery finishes a shadow recovery after the restarted driver
// has adopted the device: bring-up is replayed (the driver's Open — queue
// creation, IRQ), the shadow's in-flight log becomes the per-queue replay
// schedule, and every queue is released — replays first, then parked
// submissions. It returns the number of requests scheduled for replay. On
// an Open failure the device stays recovering (parked requests intact), so
// a second restart can try again.
func (d *Dev) CompleteRecovery() (int, error) {
	if !d.recovering {
		return 0, nil
	}
	if d.up {
		if err := d.drv.Open(); err != nil {
			return 0, fmt.Errorf("blockdev: recovery open %s: %w", d.Name, err)
		}
	}
	n := 0
	if d.shadow != nil {
		pending := d.shadow.PendingByQueue(len(d.queues))
		d.replay = make([]fifo.Queue[shadow.PendingBlock], len(pending))
		for q, p := range pending {
			d.replay[q] = fifo.Of(p)
			n += len(p)
		}
	}
	// Everything tabled right now was dispatched to the incarnation that
	// died; when the last of them completes (replayed or raced), the
	// recovery has drained.
	d.drainBelow = d.nextTag
	d.drainLeft = d.inflight.Len()
	d.Flight.Recordf(trace.FReplay, "%s epoch %d: %d logged requests scheduled for replay",
		d.Name, d.epoch, n)
	if d.drainLeft == 0 {
		d.Flight.Recordf(trace.FDrain, "%s epoch %d: nothing was in flight at death",
			d.Name, d.epoch)
	}
	d.recovering = false
	for q := range d.queues {
		d.WakeQueueQ(q)
	}
	// A barrier that was active (or queued) when the driver died resumes:
	// replayed requests are back in flight, and the flush dispatches once
	// they drain — kill -9 plus respawn cannot reorder acked-durable
	// writes around the barrier.
	d.pumpBarrier()
	return n, nil
}

// BeginQueueRecovery parks exactly one queue: the supervisor detected DMA
// faults attributable to queue q and revoked that queue's sub-domain, while
// the driver process — and every sibling queue — stays up. The queue's own
// epoch is bumped so completions the proxy still stamps with the dead
// incarnation are rejected, its in-flight requests stay tabled awaiting
// replay, and new submissions steered onto it park in its software queue.
// Idempotent: a second quarantine of an already-parked queue changes
// nothing, and a device-wide recovery in progress subsumes the surgical one.
func (d *Dev) BeginQueueRecovery(q int) {
	if d.recovering {
		return
	}
	qc := &d.queues[d.clampQ(q)]
	if qc.recovering {
		return
	}
	qc.recovering = true
	qc.stalled = true
	qc.Epoch++
	qc.drainBelow = d.nextTag
	qc.drainLeft = 0
	for _, r := range d.inflight.All() {
		if r.q == qc.ID {
			qc.drainLeft++
		}
	}
	d.Flight.Recordf(trace.FPark, "%s q%d epoch %d: %d in flight, %d queued parked",
		d.Name, qc.ID, qc.Epoch, qc.drainLeft, qc.waiting.Len())
}

// CompleteQueueRecovery finishes a surgical recovery: the supervisor
// re-armed queue q's DMA sub-domain and resynced the proxy at the queue's
// new epoch, so the shadow's unfinished requests for this one queue become
// its replay schedule — original submission order, original tags, their
// callbacks still tabled — and the queue is released. Siblings never
// noticed. It returns the number of requests scheduled for replay; it is an
// error while a device-wide recovery is in progress (the full replay owns
// every queue).
func (d *Dev) CompleteQueueRecovery(q int) (int, error) {
	if d.recovering {
		return 0, fmt.Errorf("blockdev: %s is in device-wide recovery", d.Name)
	}
	qc := &d.queues[d.clampQ(q)]
	if !qc.recovering {
		return 0, nil
	}
	n := 0
	if d.shadow != nil {
		if d.replay == nil {
			d.replay = make([]fifo.Queue[shadow.PendingBlock], len(d.queues))
		}
		p := d.shadow.PendingForQueue(qc.ID, len(d.queues))
		d.replay[qc.ID] = fifo.Of(p)
		n = len(p)
	}
	d.Flight.Recordf(trace.FReplay, "%s q%d epoch %d: %d logged requests scheduled for replay",
		d.Name, qc.ID, qc.Epoch, n)
	if qc.drainLeft == 0 {
		d.Flight.Recordf(trace.FDrain, "%s q%d epoch %d: nothing was in flight at quarantine",
			d.Name, qc.ID, qc.Epoch)
	}
	qc.recovering = false
	d.WakeQueueQ(qc.ID)
	d.pumpBarrier()
	return n, nil
}
