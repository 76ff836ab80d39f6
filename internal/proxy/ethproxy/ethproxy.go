// Package ethproxy is SUD's Ethernet proxy driver (§3.1): the in-kernel
// module that implements the Linux netdev contract on behalf of an untrusted
// user-space driver, translating kernel calls into uchan upcalls and driver
// downcalls back into kernel operations.
//
// It makes no liveness or semantic assumptions about the driver process:
// synchronous upcalls (open/stop/ioctl) are interruptible, packet transmit
// is asynchronous with shared-buffer backpressure, and every shared-memory
// reference arriving from the driver is validated against the driver's own
// DMA allocations before the kernel touches it. Received packet payloads are
// guard-copied out of shared memory in the same pass that verifies their
// checksum (§3.1.2), closing the TOCTOU window. The proxy records its
// interface's incarnation epoch at bind time; once the netstack begins
// shadow recovery (driver death, §2/§5.2) every downcall from the dead
// incarnation — frames, TX credits, wakes — is rejected and counted.
package ethproxy

import (
	"fmt"

	"sud/internal/drivers/api"
	"sud/internal/fifo"
	"sud/internal/kernel/netstack"
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
	OpOpen  = protocol.EthBase + iota // sync
	OpStop                            // sync
	OpXmit                            // async; Args: [0]=buffer IOVA, [1]=length, [2]=slot index, [3]=TX queue
	OpIoctl                           // sync; Args: [0]=cmd; Data: argument bytes
	// OpPageRecycle returns flipped buffer pages to the driver (async);
	// Data carries the protocol recycle framing (epoch + page IOVAs). The
	// pages have been remapped before the upcall is sent, so the driver
	// may re-arm descriptors over them immediately.
	OpPageRecycle
	// OpQueueEpoch announces a per-queue epoch transition (async); Data
	// carries the protocol qstate framing. A parked frame tells the
	// driver runtime one queue pair is quarantined; an armed frame
	// re-syncs the runtime at the queue's new epoch.
	OpQueueEpoch
)

// Downcall operations (driver → kernel).
const (
	OpNetifRx  = protocol.EthBase + 16 + iota // Args: [0]=buffer IOVA, [1]=length
	OpXmitDone                                // Args: [0]=slot index
	OpCarrierOn
	OpCarrierOff
	OpWakeQueue // Args: [0]=TX queue regaining space
	// OpNetifRxBatch delivers up to MaxRxBatch received-frame references
	// in one message; Data carries the rxbatch.go framing. The queue is
	// the ring the message arrived on.
	OpNetifRxBatch
	// OpRecycleAck echoes an OpPageRecycle frame back once the driver has
	// re-armed descriptors over the returned pages. Defensively decoded;
	// an ack whose embedded epoch does not match the live incarnation is
	// stale (a dead driver's leftovers) and is rejected.
	OpRecycleAck
)

// TX shared-pool geometry: SUD preallocates shared buffers and passes
// pointers, avoiding copies on the transmit path (§3.1.2).
const (
	TxSlots    = 256
	TxSlotSize = 2048
)

// Guard strategies for received shared-memory payloads (§3.1.2): the paper
// fuses the TOCTOU guard copy with checksum verification; the ablations
// measure the naive two-pass copy and the rejected read-only-page-table
// alternative (an IOTLB invalidation per buffer, which the paper found
// "prohibitively expensive").
const (
	GuardFused = iota
	GuardSeparate
	GuardReadonlyIOTLB
	// GuardNone passes the kernel a live view of the shared buffer — the
	// insecure zero-copy variant, kept to demonstrate the §3.1.2 TOCTOU
	// attack the guard copy exists to stop.
	GuardNone
	// GuardPageFlip amortises the guard to page granularity: for a batch
	// whose references fully tile a 4-KiB buffer page, the proxy revokes
	// the driver's IOMMU mapping for the whole page (one walk per page,
	// one IOTLB shootdown per batch), delivers every frame on it by
	// reference — the driver can no longer touch the bytes, so the TOCTOU
	// property holds without a copy — and returns the page on the lazy
	// recycle lane. Frames on partially-covered pages fall back to the
	// fused guard copy.
	GuardPageFlip
)

// RxSlotSize is the page-flip eligibility contract with page-aware drivers:
// RX buffers are packed two per 4-KiB page at this stride, and a reference
// only counts toward a page's coverage if it starts on a slot boundary. (It
// matches the e1000e buffer size; a driver using different packing simply
// never flips and pays the per-frame guard instead.)
const RxSlotSize = 2048

// Proxy is one Ethernet proxy driver instance. Both fast paths are
// multi-queue aware. Transmit: the shared buffer pool is partitioned across
// the channel's ring pairs, frames are steered to a queue by flow hash, and
// backpressure (slot exhaustion, ring-full) is tracked per queue so one
// saturated queue stops — and later wakes — only its own netstack queue
// context. Receive: each ring delivers into its own per-queue partition
// (validation and counters per ring), and frames arrive batched up to
// MaxRxBatch references per downcall so a queue pays a fraction of a
// doorbell per frame instead of a wakeup each. The per-queue slot pools,
// epoch fence and recycle lane are the embedded core's.
type Proxy struct {
	qcore.Core
	K   *KernelIface
	Ifc *netstack.Iface

	// GuardMode selects the §3.1.2 TOCTOU-guard strategy (ablations).
	GuardMode int

	// guardBufs recycles the kernel buffers received frames are
	// guard-copied into; each returns when its NetifRxVerified does.
	guardBufs *fifo.Buffers

	// Per-queue RX partitions: frames and batches delivered per ring.
	RxQueueFrames  []uint64
	RxQueueBatches []uint64

	// Security / robustness counters.
	RxInvalidRef uint64 // shared-buffer references outside the driver's memory
	RxBadLength  uint64
	RxBadBatch   uint64 // malformed batch framing from the driver
	RxStaleEpoch uint64 // downcalls from a dead driver incarnation
	// RxStaleQueueEpoch counts deliveries rejected by the per-queue epoch
	// discipline: the queue is quarantined and not yet re-armed.
	RxStaleQueueEpoch uint64
	RxRevokedRef      uint64 // references naming a page the kernel already owns
	TxDropsHung       uint64
	MirrorUpdates     uint64 // shared-state synchronisation messages (§3.3)
}

// KernelIface is the slice of kernel services the proxy needs (breaking a
// direct dependency on the kernel package for testability).
type KernelIface struct {
	Acct    *sim.CPUAccount
	Mem     *mem.Memory
	Net     *netstack.Stack
	IfaceNm string
}

// New registers an Ethernet interface backed by the user-space driver on
// the other end of c. mac is the mirrored hardware address (§3.3: shared
// state such as dev_addr is synchronised, not fetched by upcall). If the
// requested interface name is taken, the next free ethN is allocated, as
// the kernel's netdev core does — so several NIC driver processes coexist.
// The TX pool is partitioned per queue, each partition in its queue's own
// IOMMU sub-domain (the NIC TX engine for queue i stamps stream i+1); the
// partitions are allocated back to back, so the IOVA layout is identical
// to a single shared pool.
func New(ki *KernelIface, df *pciaccess.DeviceFile, c *uchan.MultiChan, name string, mac [6]byte) (*Proxy, error) {
	q := c.NumQueues()
	p := &Proxy{
		K:              ki,
		RxQueueFrames:  make([]uint64, q),
		RxQueueBatches: make([]uint64, q),
		guardBufs:      fifo.NewBuffers(maxFrame),
	}
	cfg := qcore.Config{Class: "ethproxy", PoolLabel: "TX q%d slot pool", Slots: TxSlots / q,
		SlotSize: TxSlotSize, RecycleOp: OpPageRecycle, QStateOp: OpQueueEpoch}
	if err := p.Init(cfg, ki.Acct, df, c, func(q int) { p.Ifc.WakeQueue(q) }); err != nil {
		return nil, err
	}
	ifc, err := qcore.RegisterUnique(name, netstack.ErrNameTaken, func(name string) (*netstack.Iface, error) {
		return ki.Net.Register(name, mac, (*proxyDev)(p))
	})
	if err != nil {
		return nil, err
	}
	ki.IfaceNm = ifc.Name
	p.Ifc = ifc
	p.Bind(ifc)
	return p, nil
}

// StaleEpochDowncalls is the policy plane's zombie-incarnation evidence:
// downcalls this proxy rejected because the interface moved on to a newer
// driver incarnation.
func (p *Proxy) StaleEpochDowncalls() uint64 { return p.RxStaleEpoch }

// proxyDev is the netstack-facing half: it satisfies the same NetDevice
// contract an in-kernel driver would, by RPC.
type proxyDev Proxy

func (d *proxyDev) p() *Proxy { return (*Proxy)(d) }

// Open forwards ndo_open as a synchronous, interruptible upcall.
func (d *proxyDev) Open() error {
	_, err := d.p().Call("open", uchan.Msg{Op: OpOpen})
	return err
}

// Stop forwards ndo_stop.
func (d *proxyDev) Stop() error {
	_, err := d.p().Call("stop", uchan.Msg{Op: OpStop})
	return err
}

// DoIoctl forwards a device-private ioctl synchronously (the paper's
// SIOCGMIIREG example).
func (d *proxyDev) DoIoctl(cmd uint32, arg []byte) ([]byte, error) {
	return d.p().Call("ioctl", uchan.Msg{Op: OpIoctl, Args: [6]uint64{uint64(cmd)}, Data: arg})
}

// TxQueues implements api.MultiQueueNetDevice: one netstack queue context
// per uchan ring pair.
func (d *proxyDev) TxQueues() int { return d.p().C.NumQueues() }

// StartXmit transmits on the flow's hashed queue (single-queue hosts).
func (d *proxyDev) StartXmit(frame []byte) error {
	p := d.p()
	return d.StartXmitQ(frame, netstack.TxQueueForFrame(frame, p.C.NumQueues()))
}

// StartXmitQ copies the frame into a shared slot of the given TX queue and
// queues an asynchronous transmit upcall on that queue's ring — the §3.1
// fast path. Pool exhaustion or a hung queue surfaces as backpressure on
// that queue only, never as a blocked kernel thread. The upcall names the
// slot by its index across all partitions.
func (d *proxyDev) StartXmitQ(frame []byte, q int) error {
	p := d.p()
	if len(frame) > TxSlotSize {
		return fmt.Errorf("ethproxy: frame of %d bytes exceeds slot size", len(frame))
	}
	q = p.Clamp(q)
	local, ok := p.NextSlot(q)
	if !ok {
		return api.ErrTxBusy
	}
	slot := q*p.SlotsPerQueue() + local
	iova, phys := p.SlotAddr(q, local)
	p.K.Acct.Charge(sim.Copy(len(frame)))
	if err := p.K.Mem.Write(phys, frame); err != nil {
		return fmt.Errorf("ethproxy: shared pool write: %w", err)
	}
	err := p.C.ASend(q, uchan.Msg{
		Op:   OpXmit,
		Args: [6]uint64{uint64(iova), uint64(len(frame)), uint64(slot), uint64(q)},
	})
	if err != nil {
		p.TxDropsHung++
		p.Stall(q)
		return fmt.Errorf("ethproxy: xmit upcall: %w", err)
	}
	p.Claim(q)
	p.K.Net.Trace.Mark(trace.ClassNetTx, q, uint64(slot))
	p.K.Net.Trace.Event(trace.ClassNetTx, q, uint64(slot), trace.HopUchanEnq)
	return nil
}

// HandleDowncall services one driver→kernel message in kernel context; the
// SUD-UML runtime routes Ethernet-range ops here. q is the ring the message
// arrived on — the RX partition it delivers into and the TX queue its
// completions credit.
func (p *Proxy) HandleDowncall(q int, m uchan.Msg) {
	if p.Stale() {
		// This proxy belongs to a dead driver incarnation: the interface
		// was (or is being) recovered onto a restarted process. Frames,
		// TX credits and wakes from the old incarnation are dropped and
		// counted — its shared buffers are gone and its slot indices now
		// name the new incarnation's pool.
		p.RxStaleEpoch++
		return
	}
	q = p.Clamp(q)
	if (m.Op == OpNetifRx || m.Op == OpNetifRxBatch) && p.QueueParked(q) {
		// The queue is quarantined and not yet re-armed: its buffers sit
		// in a revoked sub-domain, so what it delivers is dropped and
		// counted. Net RX carries no queue-epoch stamp, so being parked is
		// the whole test.
		p.RxStaleQueueEpoch++
		return
	}
	switch m.Op {
	case OpNetifRx:
		if m.Data != nil {
			// Inline (bounced) frame: the bytes were copied through
			// the ring, so only the length bound and checksum
			// verification remain.
			if !p.lengthOK(len(m.Data)) {
				return
			}
			p.K.Acct.Charge(sim.Checksum(len(m.Data)))
			p.RxQueueFrames[q]++
			p.Ifc.NetifRxVerified(m.Data, q)
			return
		}
		if p.GuardMode == GuardPageFlip {
			// Single-frame transport (Q=1 keeps the paper's exact
			// one-message-per-frame path): a lone ref can never tile a
			// page, so it takes the guard-copy fallback — but it must
			// still flow through the page bookkeeping, because a
			// page-aware driver re-arms its descriptor only when the
			// recycle lane returns the page.
			p.netifRxBatchFlip(q, []RxRef{{IOVA: m.Args[0], Len: uint32(m.Args[1])}})
			return
		}
		p.netifRx(q, mem.Addr(m.Args[0]), int(m.Args[1]))
	case OpNetifRxBatch:
		var buf [MaxRxBatch]RxRef
		refs, err := DecodeRxBatch(buf[:], m.Data)
		if err != nil {
			// Malformed framing from the untrusted driver: dropped
			// and counted, never dispatched (§3.1.1).
			p.RxBadBatch++
			return
		}
		p.RxQueueBatches[q]++
		if p.GuardMode == GuardPageFlip {
			p.netifRxBatchFlip(q, refs)
			return
		}
		for _, r := range refs {
			p.netifRx(q, mem.Addr(r.IOVA), int(r.Len))
		}
	case OpRecycleAck:
		p.RecycleAck(m.Data)
	case OpXmitDone:
		// An out-of-range slot is ignored; a credit for a slot already
		// free is a confused or malicious driver, and crediting it again
		// would hand one slot to two frames.
		slot, per := int(m.Args[0]), p.SlotsPerQueue()
		if slot < 0 || slot >= per*p.NumQueues() {
			return
		}
		sq, local := slot/per, slot%per
		if !p.Claimed(sq, local) {
			p.UpcallErrors++
			return
		}
		if d, ok := p.K.Net.Trace.TakeLat(trace.ClassNetTx, sq, uint64(slot)); ok {
			p.Ifc.Queue(sq).TxLat.Record(d)
		}
		p.K.Net.Trace.Event(trace.ClassNetTx, sq, uint64(slot), trace.HopComplete)
		p.Ifc.TxConfirm(sq)
		p.Release(sq, local)
		p.MaybeWake(sq)
	case OpCarrierOn:
		p.MirrorUpdates++
		p.Ifc.CarrierOn()
	case OpCarrierOff:
		p.MirrorUpdates++
		p.Ifc.CarrierOff()
	case OpWakeQueue:
		p.MaybeWake(p.Clamp(int(m.Args[0])))
	default:
		// Unknown downcalls from an untrusted driver are ignored, not
		// trusted (§3.1.1).
		p.UpcallErrors++
	}
}

// maxFrame is the longest frame the proxy accepts from the driver.
const maxFrame = netstack.EthHeaderLen + 1500 + 4

// lengthOK bounds a received frame's length, by reference or inline, to
// (0, maxFrame], counting one outside it.
func (p *Proxy) lengthOK(n int) bool {
	if n <= 0 || n > maxFrame {
		p.RxBadLength++
		return false
	}
	return true
}

// netifRx validates the driver's shared-buffer reference and performs the
// fused guard-copy + checksum (§3.1.2): the kernel's private copy is taken
// before the firewall or any other consumer sees the bytes, so later
// modification of the shared buffer by a malicious driver is harmless. The
// copy lands in a recycled kernel buffer that the proxy takes back once
// NetifRxVerified returns.
func (p *Proxy) netifRx(q int, iova mem.Addr, n int) {
	if !p.lengthOK(n) {
		return
	}
	if !p.DF.ValidateRange(iova, n) {
		// Distinguish a reference into a page the kernel already owns
		// (page-flip squatting — ValidateRange has recorded the fault as
		// driver evidence) from one outside the driver's memory entirely.
		if p.DF.PageRevoked(iova) {
			p.RxRevokedRef++
		} else {
			p.RxInvalidRef++
		}
		return
	}
	phys, ok := p.DF.PhysFor(iova)
	if !ok {
		p.RxInvalidRef++
		return
	}
	p.RxQueueFrames[q]++
	if p.GuardMode == GuardNone {
		// INSECURE (demonstration only): the stack and firewall see
		// shared memory the driver can still modify.
		p.K.Acct.Charge(sim.Checksum(n))
		if view, ok := p.K.Mem.Slice(phys, n); ok {
			p.Ifc.NetifRxVerified(view, q)
			p.rxDelivered(q, uint64(iova))
		}
		return
	}
	p.K.Net.Trace.Event(trace.ClassNetRx, q, uint64(iova), trace.HopGuard)
	frame := p.guardBufs.Get(n)
	defer p.guardBufs.Put(frame)
	switch p.GuardMode {
	case GuardSeparate:
		// Naive: copy pass, then an independent checksum pass.
		p.K.Acct.Charge(sim.Copy(n) + sim.Checksum(n))
		p.GuardCopiedBytes += uint64(n)
	case GuardReadonlyIOTLB:
		// Mark the page read-only instead of copying: requires an
		// IOTLB invalidation per buffer turnaround.
		p.K.Acct.Charge(sim.Checksum(n) + sim.CostIOTLBInvalidate)
	default:
		// Fused guard copy + checksum, the paper's design — also the
		// fallback for page-flip frames on partially-covered pages.
		p.K.Acct.Charge(sim.ChecksumCopy(n))
		p.GuardCopiedBytes += uint64(n)
	}
	if err := p.K.Mem.Read(phys, frame); err != nil {
		p.RxInvalidRef++
		return
	}
	p.Ifc.NetifRxVerified(frame, q)
	p.rxDelivered(q, uint64(iova))
}

// rxDelivered closes out the receive span for the frame the device wrote at
// iova: it pops the DMA-time stamp the device model placed (recording the
// device→stack end-to-end latency into the queue's histogram) and emits the
// delivery hop. Bounced frames carry no reference and are not recorded.
func (p *Proxy) rxDelivered(q int, iova uint64) {
	tr := p.K.Net.Trace
	if d, ok := tr.TakeLat(trace.ClassNetRx, q, iova); ok {
		p.Ifc.Queue(q).RxLat.Record(d)
	}
	tr.Event(trace.ClassNetRx, q, iova, trace.HopDeliver)
}
