// Package blkproxy is SUD's block proxy driver: the in-kernel module that
// implements the kernel block contract on behalf of an untrusted user-space
// storage driver, translating block-core submissions into uchan upcalls and
// driver completions back into kernel operations — the storage sibling of
// ethproxy.
//
// It makes no liveness or semantic assumptions about the driver process:
// open/stop are interruptible synchronous upcalls, submission is
// asynchronous with per-queue shared-slot backpressure, and every
// shared-memory reference arriving in a completion is validated against the
// driver's own DMA allocations before the kernel touches it. Read payloads
// are guard-copied out of shared memory before any consumer sees them
// (§3.1.2's TOCTOU discipline; block data carries no checksum to fuse with,
// so the guard is a plain copy), and batched completion framing is decoded
// defensively — malformed batches are dropped and counted, never
// dispatched.
//
// The proxy also enforces the temporal member of that guard family: it
// records the device's incarnation epoch at bind time, and once the block
// core begins shadow recovery (driver death, §2/§5.2) every downcall from
// this — now dead — incarnation is rejected wholesale, so a late or forged
// completion cannot match a tag that replay has made live again.
package blkproxy

import (
	"fmt"

	"sud/internal/drivers/api"
	"sud/internal/fifo"
	"sud/internal/flatmap"
	"sud/internal/kernel/blockdev"
	"sud/internal/mem"
	"sud/internal/proxy/pciaccess"
	"sud/internal/proxy/protocol"
	"sud/internal/proxy/qcore"
	"sud/internal/sim"
	"sud/internal/trace"
	"sud/internal/uchan"
)

// Upcall operations (kernel → driver).
const (
	OpOpen   = protocol.BlockBase + iota // sync
	OpStop                               // sync
	OpSubmit                             // async; Args: [0]=flags (bit 0 write, bit 1 FUA), [1]=LBA, [2]=payload IOVA, [3]=length, [4]=slot, [5]=tag
	// OpFlush issues a write barrier; Data carries one flushop.go frame
	// (barrier sequence, epoch, tag). The driver must drain the device's
	// volatile cache and echo the frame back as OpFlushDone.
	OpFlush
	// OpPageRecycle returns flipped read-buffer pages to the driver
	// (async); Data carries the protocol recycle framing (epoch + page
	// IOVAs). The pages have been remapped before the upcall is sent, so
	// the driver may reuse the slots they back immediately.
	OpPageRecycle
	// OpQueueEpoch announces a per-queue epoch transition (async); Data
	// carries the protocol qstate framing. A parked frame tells the
	// driver runtime one queue is quarantined; an armed frame re-syncs
	// the runtime at the queue's new epoch, which it must stamp on every
	// completion it sends for that queue from then on.
	OpQueueEpoch
)

// Downcall operations (driver → kernel).
const (
	// OpComplete finishes one request; Args: [0]=tag, [1]=status,
	// [2]=payload IOVA, [3]=length (reads). Data, when set, carries a
	// bounced inline payload instead of a reference.
	OpComplete = protocol.BlockBase + 16 + iota
	// OpCompleteBatch delivers up to MaxBlkBatch completions in one
	// message; Data carries the blkbatch.go framing. The queue is the
	// ring the message arrived on.
	OpCompleteBatch
	// OpWakeQueue re-enables a stopped submission queue; Args: [0]=queue.
	OpWakeQueue
	// OpFlushDone completes a flush barrier; Data carries the flushop.go
	// frame, validated against the proxy's own barrier accounting.
	OpFlushDone
	// OpRecycleAck echoes an OpPageRecycle frame back once the driver has
	// returned the pages to its free pool. Defensively decoded; an ack
	// carrying a dead incarnation's epoch is stale and rejected.
	OpRecycleAck
)

// Guard strategies for read-completion payloads. Block data carries no
// checksum to fuse with, so the baseline guard is a plain copy; GuardPageFlip
// amortises it to page granularity exactly as ethproxy does — a read
// completion that is one whole page-aligned page is revoked from the
// driver's IOMMU domain (one walk, batch-amortised shootdown), delivered by
// reference, and returned on the lazy recycle lane.
const (
	GuardCopy = iota
	GuardPageFlip
)

// OpSubmit flag bits.
const (
	SubmitWrite = 1 << 0
	SubmitFUA   = 1 << 1
)

// SlotsPerQueue is each queue's shared-slot partition: one slot per
// outstanding request on that queue (write slots also stage the payload, so
// the driver never sees kernel memory). SUD preallocates shared buffers and
// passes references, avoiding copies on the submission path (§3.1.2).
const SlotsPerQueue = 64

// Proxy is one block proxy driver instance. The shared-slot pools, the
// stall/wake state, the epoch fence and the recycle lane are the embedded
// core's, one per queue; each queue's pool is its own device-file
// allocation in the queue's own IOMMU sub-domain.
type Proxy struct {
	qcore.Core
	K   *KernelIface
	Dev *blockdev.Dev

	// tagSlot maps an in-flight tag to its (queue, slot) so completion
	// releases the right pool entry.
	tagSlot flatmap.Map[uint64, int] // packed q*SlotsPerQueue + slot

	// GuardMode selects the read-payload TOCTOU-guard strategy.
	GuardMode int

	// guardBufs recycles the kernel buffers read payloads are guard-copied
	// into; each returns when its Dev.Complete does.
	guardBufs *fifo.Buffers

	// Per-queue completion counters.
	QueueComps   []uint64
	QueueBatches []uint64

	// Barrier accounting (per device epoch): barrierSeq numbers every
	// flush upcall this incarnation issued, and inFlightFlush is the one
	// barrier the driver currently holds. A FlushDone that does not name
	// exactly that barrier — or that arrives while requests dispatched
	// before it are still outstanding — is a flush lie, rejected before
	// the block core hears "durable".
	barrierSeq    uint64
	inFlightFlush flushState

	// Durability counters: what this proxy told the driver versus what
	// the driver acked — the kernel-side half of flush-lie attribution
	// (the device's own Flushes/FUAWrites counters are the other half).
	FlushesIssued uint64
	FlushesAcked  uint64
	FUAIssued     uint64

	// Security / robustness counters.
	CompInvalidRef    uint64 // payload references outside the driver's memory
	CompBadLength     uint64
	CompBadTag        uint64 // completions for tags never issued
	CompBadBatch      uint64 // malformed batch framing from the driver
	CompBadFlushFrame uint64 // malformed flush framing from the driver
	CompBadBarrier    uint64 // flush completions naming no in-flight barrier
	CompBarrierEarly  uint64 // barriers acked with prior requests outstanding
	CompStaleEpoch    uint64 // downcalls from a dead driver incarnation
	// CompStaleQueueEpoch counts completions rejected by the per-queue
	// epoch discipline: the queue is quarantined and not yet re-armed, or
	// the stamp names a dead incarnation of the queue.
	CompStaleQueueEpoch uint64
	CompRevokedRef      uint64 // references naming a page the kernel already owns
	SubmitDropsHung     uint64
}

// flushState is the one barrier the driver currently holds, if held.
type flushState struct {
	held    bool
	barrier uint64
	tag     uint64
}

// KernelIface is the slice of kernel services the proxy needs.
type KernelIface struct {
	Acct    *sim.CPUAccount
	Mem     *mem.Memory
	Blk     *blockdev.Manager
	DevName string
}

// New registers a block device backed by the user-space driver on the other
// end of c. geom is the mirrored media geometry (§3.3: static state is
// synchronised at registration, never fetched by upcall). If the requested
// device name is taken, the next free name is allocated, as the kernel's
// block core does — so several storage driver processes coexist.
func New(ki *KernelIface, df *pciaccess.DeviceFile, c *uchan.MultiChan, name string, geom api.BlockGeometry) (*Proxy, error) {
	p, err := newProxy(ki, df, c, geom)
	if err != nil {
		return nil, err
	}
	dev, err := qcore.RegisterUnique(name, blockdev.ErrNameTaken, func(name string) (*blockdev.Dev, error) {
		return ki.Blk.Register(name, geom, (*proxyDev)(p))
	})
	if err != nil {
		return nil, err
	}
	p.Bind(dev)
	return p, nil
}

// NewStandby builds a proxy for a hot-standby driver process and
// pre-registers it with the block core for the named LIVE device — before
// any kill. The shared-slot pools are allocated (and their IOMMU mappings
// established) now, at arm time; what is deferred to promotion is only the
// binding to the device object, because the device's epoch at failover
// does not exist yet. The geometry identity check runs here, inside
// RegisterStandby.
func NewStandby(ki *KernelIface, df *pciaccess.DeviceFile, c *uchan.MultiChan, name string, geom api.BlockGeometry) (*Proxy, error) {
	p, err := newProxy(ki, df, c, geom)
	if err != nil {
		return nil, err
	}
	if err := ki.Blk.RegisterStandby(name, geom, (*proxyDev)(p)); err != nil {
		return nil, err
	}
	return p, nil
}

// newProxy builds an unbound proxy: one slot pool per queue, every slot
// free. Queue i's slots belong to device I/O queue i+1, so a compromised
// sibling queue's descriptor naming a slot here faults at the walk.
func newProxy(ki *KernelIface, df *pciaccess.DeviceFile, c *uchan.MultiChan, geom api.BlockGeometry) (*Proxy, error) {
	q := c.NumQueues()
	p := &Proxy{
		K:            ki,
		QueueComps:   make([]uint64, q),
		QueueBatches: make([]uint64, q),
		guardBufs:    fifo.NewBuffers(geom.BlockSize),
	}
	cfg := qcore.Config{Class: "blkproxy", PoolLabel: "blk q%d slot pool", Slots: SlotsPerQueue,
		SlotSize: geom.BlockSize, RecycleOp: OpPageRecycle, QStateOp: OpQueueEpoch}
	if err := p.Init(cfg, ki.Acct, df, c, func(q int) { p.Dev.WakeQueueQ(q) }); err != nil {
		return nil, err
	}
	return p, nil
}

// Bind attaches the proxy to the device it backs, at the device's current
// epochs. A promoted standby binds after the block core's PromoteStandby —
// the device's epoch has already been bumped by the primary's death, so the
// standby binds to the NEW incarnation and the dead primary's proxy stays
// stale.
func (p *Proxy) Bind(dev *blockdev.Dev) {
	p.Dev = dev
	p.Core.Bind(dev)
	p.K.DevName = dev.Name
}

// BarrierViolations is the policy plane's flush-lie evidence: completions
// the barrier accounting rejected, either for naming no in-flight barrier
// or for acking one while requests dispatched before it were outstanding.
func (p *Proxy) BarrierViolations() uint64 { return p.CompBadBarrier + p.CompBarrierEarly }

// StaleEpochDowncalls is the policy plane's zombie-incarnation evidence:
// downcalls rejected because the device moved on to a newer incarnation.
func (p *Proxy) StaleEpochDowncalls() uint64 { return p.CompStaleEpoch }

// proxyDev is the block-core-facing half: it satisfies the same BlockDevice
// contract an in-kernel driver would, by RPC.
type proxyDev Proxy

func (d *proxyDev) p() *Proxy { return (*Proxy)(d) }

// Open forwards the bring-up as a synchronous, interruptible upcall (queue
// creation sleeps in the driver, like the e1000e's open).
func (d *proxyDev) Open() error {
	_, err := d.p().Call("open", uchan.Msg{Op: OpOpen})
	return err
}

// Stop forwards quiesce.
func (d *proxyDev) Stop() error {
	_, err := d.p().Call("stop", uchan.Msg{Op: OpStop})
	return err
}

// Queues implements api.BlockDevice: one block-core queue context per uchan
// ring pair.
func (d *proxyDev) Queues() int { return d.p().C.NumQueues() }

// Submit claims a shared slot on queue q, stages a write payload in it, and
// queues an asynchronous submission upcall on that queue's ring — the §3.1
// fast path applied to storage. Slot exhaustion or a hung queue surfaces as
// backpressure on that queue only, never as a blocked kernel thread. The
// upcall names the slot by its index within the queue.
func (d *proxyDev) Submit(q int, req api.BlockRequest) error {
	p := d.p()
	q = p.Clamp(q)
	if req.Flush {
		return p.submitFlush(q, req)
	}
	slot, ok := p.NextSlot(q)
	if !ok {
		return fmt.Errorf("blkproxy: no free slots on queue %d", q)
	}
	var flags, iova, n uint64
	if req.Write {
		if len(req.Data) != p.Dev.Geom.BlockSize {
			return fmt.Errorf("blkproxy: payload is %d bytes, want %d", len(req.Data), p.Dev.Geom.BlockSize)
		}
		flags = SubmitWrite
		if req.FUA {
			flags |= SubmitFUA
		}
		slotIOVA, phys := p.SlotAddr(q, slot)
		iova = uint64(slotIOVA)
		n = uint64(len(req.Data))
		p.K.Acct.Charge(sim.Copy(len(req.Data)))
		if err := p.K.Mem.Write(phys, req.Data); err != nil {
			return fmt.Errorf("blkproxy: slot write: %w", err)
		}
	}
	err := p.C.ASend(q, uchan.Msg{
		Op:   OpSubmit,
		Args: [6]uint64{flags, req.LBA, iova, n, uint64(slot), req.Tag},
	})
	if err != nil {
		p.SubmitDropsHung++
		p.Stall(q)
		return fmt.Errorf("blkproxy: submit upcall: %w", err)
	}
	p.K.Blk.Trace.Event(trace.ClassBlk, q, req.Tag, trace.HopUchanEnq)
	if req.FUA {
		p.FUAIssued++
	}
	p.Claim(q)
	p.tagSlot.Put(req.Tag, q*SlotsPerQueue+slot)
	return nil
}

// submitFlush issues one write barrier as an OpFlush upcall carrying the
// flushop.go frame. Barriers need no shared slot (no payload); the
// accounting — sequence, epoch, tag — is what the completion must echo.
func (p *Proxy) submitFlush(q int, req api.BlockRequest) error {
	if p.inFlightFlush.held {
		// The block core dispatches one barrier at a time; a second one
		// here means a confused caller, not a confused driver.
		return fmt.Errorf("blkproxy: barrier %d already in flight", p.inFlightFlush.barrier)
	}
	p.barrierSeq++
	var frame [FlushOpLen]byte
	fo := FlushOp{Barrier: p.barrierSeq, Epoch: p.BoundEpoch(), Tag: req.Tag}
	if err := p.C.ASend(q, uchan.Msg{Op: OpFlush, Data: AppendFlushOp(frame[:0], fo)}); err != nil {
		p.SubmitDropsHung++
		p.Stall(q)
		return fmt.Errorf("blkproxy: flush upcall: %w", err)
	}
	p.FlushesIssued++
	p.inFlightFlush = flushState{held: true, barrier: p.barrierSeq, tag: req.Tag}
	return nil
}

// HandleDowncall services one driver→kernel message in kernel context; the
// SUD-UML runtime routes block-range ops here. q is the ring the message
// arrived on — the queue whose counters it charges and whose slots its
// completions release.
func (p *Proxy) HandleDowncall(q int, m uchan.Msg) {
	if p.Stale() {
		// This proxy belongs to a dead driver incarnation: the device was
		// (or is being) recovered onto a restarted process. A completion,
		// wake or batch arriving now is the replay-vs-stale-completion
		// cousin of the §3.1.2 TOCTOU — the same tags are live again in
		// the new incarnation — so everything from the old one is dropped
		// and counted, never matched.
		p.CompStaleEpoch++
		return
	}
	q = p.Clamp(q)
	switch m.Op {
	case OpComplete:
		// Args[4] is the queue-epoch stamp the driver runtime put on the
		// completion (queue-granular sibling of the wholesale check above).
		if p.queueStale(q, m.Args[4]) {
			return
		}
		if m.Data != nil {
			// Bounced inline payload: the bytes were copied through the
			// ring, so the kernel already owns them.
			p.finish(q, m.Args[0], uint16(m.Args[1]), m.Data)
			return
		}
		if p.complete(q, CompRef{Tag: m.Args[0], Status: uint16(m.Args[1]), IOVA: m.Args[2], Len: uint32(m.Args[3])}) {
			p.shootdown(q)
		}
	case OpCompleteBatch:
		// Args[0] stamps the whole batch (the framing has no per-entry
		// epoch; a batch crosses no quarantine because the ring is the
		// queue).
		if p.queueStale(q, m.Args[0]) {
			return
		}
		var buf [MaxBlkBatch]CompRef
		comps, err := DecodeBlkBatch(buf[:], m.Data)
		if err != nil {
			// Malformed framing from the untrusted driver: dropped and
			// counted, never dispatched (§3.1.1).
			p.CompBadBatch++
			return
		}
		p.QueueBatches[q]++
		flipped := 0
		for _, c := range comps {
			if p.complete(q, c) {
				flipped++
			}
		}
		if flipped > 0 {
			p.shootdown(q)
		}
	case OpRecycleAck:
		p.RecycleAck(m.Data)
	case OpFlushDone:
		p.handleFlushDone(q, m)
	case OpWakeQueue:
		p.MaybeWake(p.Clamp(int(m.Args[0])))
	default:
		// Unknown downcalls from an untrusted driver are ignored, not
		// trusted (§3.1.1).
		p.UpcallErrors++
	}
}

// shootdown makes the pages one message revoked globally visible with one
// IOTLB shootdown, and flushes the queue's recycle lane once it is due.
func (p *Proxy) shootdown(q int) {
	p.K.Acct.Charge(sim.CostIOTLBShootdown)
	p.Shootdowns++
	p.MaybeFlush(q)
}

// queueStale applies the queue-granular epoch discipline to one completion
// message on ring q. A completion is stale when its queue is quarantined and
// not yet re-armed, or when its stamp names a dead incarnation of the queue
// (a pre-quarantine completion arriving late, or a forgery). Either way it
// is dropped and counted — the tag it names is (or will be) live again in
// the re-armed incarnation, and must only be matched by that incarnation.
func (p *Proxy) queueStale(q int, stamp uint64) bool {
	if p.QueueParked(q) || stamp != p.QueueEpochMirror(q) {
		p.CompStaleQueueEpoch++
		return true
	}
	return false
}

// RearmQueue re-syncs this proxy with queue q's new incarnation after a
// surgical quarantine, before the block core replays the queue. Slots still
// held by the queue's in-flight tags are reclaimed without completing —
// replay re-submits those tags and claims fresh slots, so leaving the old
// entries would leak the pool — and the queue's stall clears without a
// wake. A barrier the dead incarnation held on queue 0 (barriers ride
// queue 0) is gone with it: replay sends the flush again under a fresh
// barrier sequence, and a late FlushDone for the old one fails the barrier
// match. Then the core's re-arm runs, and its armed frame tells the
// runtime to stamp the new epoch — and to drop work held for the dead
// incarnation.
func (p *Proxy) RearmQueue(q int) {
	if q < 0 || q >= p.NumQueues() {
		return
	}
	p.tagSlot.DeleteFunc(func(_ uint64, packed int) bool {
		if packed/SlotsPerQueue != q {
			return false
		}
		p.Release(q, packed%SlotsPerQueue)
		return true
	})
	p.Unstall(q)
	if q == 0 {
		p.inFlightFlush = flushState{}
	}
	p.Core.RearmQueue(q)
}

// handleFlushDone validates one barrier completion against the proxy's own
// accounting. The frame is hostile input: it must decode exactly, name the
// one barrier in flight, carry this proxy's epoch, and echo the flush's
// tag — and it must not arrive while requests dispatched before the
// barrier are still outstanding. Anything else is a flush lie: the driver
// completing a barrier it was never given (or early, or twice, or across
// an incarnation), counted and — for the early case — surfaced as a
// driver-attributed flush failure rather than a false durability claim.
func (p *Proxy) handleFlushDone(q int, m uchan.Msg) {
	fo, err := DecodeFlushOp(m.Data)
	if err != nil {
		p.CompBadFlushFrame++
		return
	}
	fs := p.inFlightFlush
	if !fs.held || fo.Barrier != fs.barrier || fo.Epoch != p.BoundEpoch() || fo.Tag != fs.tag {
		p.CompBadBarrier++
		return
	}
	if outstanding := p.tagSlot.Len(); outstanding > 0 {
		p.inFlightFlush = flushState{}
		p.CompBarrierEarly++
		p.QueueComps[q]++
		p.Dev.Complete(q, fs.tag, fmt.Errorf(
			"blkproxy: driver completed barrier %d early (%d prior requests outstanding)",
			fo.Barrier, outstanding), nil)
		return
	}
	p.inFlightFlush = flushState{}
	p.QueueComps[q]++
	if fo.Status != 0 {
		p.Dev.Complete(q, fs.tag, fmt.Errorf("blkproxy: device flush status %d", fo.Status), nil)
		return
	}
	p.FlushesAcked++
	p.Dev.Complete(q, fs.tag, nil, nil)
}

// complete validates one completion reference and delivers it. The payload
// reference must lie inside the driver's own DMA allocations and be exactly
// one block; under GuardCopy the kernel's private copy is taken before any
// consumer sees the bytes, so later modification of the shared buffer by a
// malicious driver is harmless — and a foreign reference fails the request
// instead of leaking whatever it pointed at. The copy lands in a recycled
// kernel buffer that the proxy takes back once Dev.Complete returns, so a
// consumer that keeps the payload past its callback copies it. Under
// GuardPageFlip a page-aligned whole-page payload is instead revoked from
// the driver's domain and delivered by reference: the driver can no longer
// reach the bytes, so the TOCTOU property holds with zero copied bytes.
// Reports whether a page was flipped so the caller can amortise one IOTLB
// shootdown over the batch.
func (p *Proxy) complete(q int, c CompRef) bool {
	// Tag validation comes first: a completion for a tag never issued is
	// dropped before the kernel spends a block-sized guard copy on it —
	// forged completions must not buy CPU with invalid handles.
	if !p.tagSlot.Has(c.Tag) {
		p.CompBadTag++
		return false
	}
	if c.Status != 0 {
		p.finish(q, c.Tag, c.Status, nil)
		return false
	}
	if c.IOVA == 0 && c.Len == 0 {
		// Write completion: no payload.
		p.finish(q, c.Tag, 0, nil)
		return false
	}
	n := int(c.Len)
	if n != p.Dev.Geom.BlockSize {
		p.CompBadLength++
		p.failRead(q, c.Tag, "bad completion length")
		return false
	}
	if !p.DF.ValidateRange(mem.Addr(c.IOVA), n) {
		// Distinguish a reference into a page the kernel already owns
		// (ValidateRange has recorded the fault as driver evidence) from
		// one outside the driver's memory entirely.
		if p.DF.PageRevoked(mem.Addr(c.IOVA)) {
			p.CompRevokedRef++
		} else {
			p.CompInvalidRef++
		}
		p.failRead(q, c.Tag, "completion reference outside driver memory")
		return false
	}
	if p.GuardMode == GuardPageFlip && n == mem.PageSize && c.IOVA%mem.PageSize == 0 {
		phys, err := p.DF.RevokePage(mem.Addr(c.IOVA))
		if err == nil {
			p.K.Blk.Trace.Event(trace.ClassBlk, q, c.Tag, trace.HopFlip)
			p.K.Acct.Charge(sim.CostPageFlipRevoke)
			p.PagesFlipped++
			p.Lend(q, c.IOVA)
			view, ok := p.K.Mem.Slice(phys, n)
			if ok {
				// The driver's window onto the page is gone, so the
				// view is stable — delivered by reference, zero
				// copied bytes.
				p.finish(q, c.Tag, 0, view)
				return true
			}
			// An unreachable physical page: fail the read; the page
			// still recycles so the pool cannot leak.
			p.CompInvalidRef++
			p.failRead(q, c.Tag, "completion reference unreadable")
			return true
		}
		// Lost revoke race: fall through to the guard copy.
	}
	phys, ok := p.DF.PhysFor(mem.Addr(c.IOVA))
	if !ok {
		p.CompInvalidRef++
		p.failRead(q, c.Tag, "completion reference unmapped")
		return false
	}
	// Guard copy (§3.1.2): block payloads carry no checksum to fuse with,
	// so the TOCTOU guard is a plain copy into kernel-owned memory.
	p.K.Blk.Trace.Event(trace.ClassBlk, q, c.Tag, trace.HopGuard)
	buf := p.guardBufs.Get(n)
	defer p.guardBufs.Put(buf)
	p.K.Acct.Charge(sim.Copy(n))
	p.GuardCopiedBytes += uint64(n)
	if err := p.K.Mem.Read(phys, buf); err != nil {
		p.CompInvalidRef++
		p.failRead(q, c.Tag, "completion reference unreadable")
		return false
	}
	p.finish(q, c.Tag, 0, buf)
	return false
}

// failRead completes a request as an I/O error after a rejected reference;
// the slot is still released so a malicious driver cannot leak pool space.
// A tag not in flight (completed twice) is dropped and counted instead.
func (p *Proxy) failRead(q int, tag uint64, why string) {
	if !p.releaseSlot(tag) {
		p.CompBadTag++
		return
	}
	p.QueueComps[q]++
	p.Dev.Complete(q, tag, fmt.Errorf("blkproxy: %s", why), nil)
}

// finish releases the request's slot and completes it to the block core.
func (p *Proxy) finish(q int, tag uint64, status uint16, data []byte) {
	if !p.releaseSlot(tag) {
		// A completion for a tag never issued (or already completed):
		// dropped and counted; the block core's own tag match would
		// reject it too, but it must not release anyone's slot.
		p.CompBadTag++
		return
	}
	p.QueueComps[q]++
	var err error
	if status != 0 {
		err = fmt.Errorf("blkproxy: device status %d", status)
	}
	p.Dev.Complete(q, tag, err, data)
}

// releaseSlot returns tag's slot to its queue's pool.
func (p *Proxy) releaseSlot(tag uint64) bool {
	packed, ok := p.tagSlot.Delete(tag)
	if !ok {
		return false
	}
	sq := packed / SlotsPerQueue
	p.Release(sq, packed%SlotsPerQueue)
	p.MaybeWake(sq)
	return true
}
