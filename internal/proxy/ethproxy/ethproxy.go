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
	"errors"
	"fmt"
	"strings"

	"sud/internal/drivers/api"
	"sud/internal/fifo"
	"sud/internal/kernel/netstack"
	"sud/internal/mem"
	"sud/internal/proxy/pciaccess"
	"sud/internal/proxy/protocol"
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
// doorbell per frame instead of a wakeup each.
type Proxy struct {
	K   *KernelIface
	DF  *pciaccess.DeviceFile
	C   *uchan.MultiChan
	Ifc *netstack.Iface

	pools    []*pciaccess.Alloc // per-queue TX slot pools (stream-tagged)
	perQueue int                // TX slots per queue (pool partition size)
	free     [][]int            // per-queue free slot lists (global slot indices)
	stalled  []bool             // per-queue: out of slots or ring space

	// GuardMode selects the §3.1.2 TOCTOU-guard strategy (ablations).
	GuardMode int

	// guardBufs recycles the kernel buffers received frames are
	// guard-copied into; each returns when its NetifRxVerified does.
	guardBufs *fifo.Buffers

	// Per-queue RX partitions: frames and batches delivered per ring.
	RxQueueFrames  []uint64
	RxQueueBatches []uint64

	// epoch is the interface incarnation this proxy bound at; once the
	// netstack bumps it (driver death → recovery) every downcall still
	// signed by this proxy is stale and is rejected wholesale.
	epoch uint64

	// qepoch mirrors each queue's own incarnation epoch as of the last
	// RearmQueue — the queue-granular sibling of epoch. Between a
	// surgical quarantine and the re-arm, the mismatch rejects the
	// queue's RX deliveries at the proxy while siblings flow.
	qepoch []uint64

	// pendingRecycle holds consumed buffer pages (by IOVA) per queue
	// awaiting the lazy recycle flush back to the driver, each once: a page
	// whose slots straddle two batches is returned exactly once.
	pendingRecycle [][]uint64

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
	UpcallErrors      uint64
	MirrorUpdates     uint64 // shared-state synchronisation messages (§3.3)

	// Page-flip accounting (the bench metrics).
	GuardCopiedBytes uint64 // bytes that went through a guard copy
	PagesFlipped     uint64
	Shootdowns       uint64 // batch-amortised IOTLB shootdowns
	RecycleUpcalls   uint64
	RecycleAcks      uint64
	RecycleBadAck    uint64 // malformed ack framing from the driver
	RecycleStaleAck  uint64 // acks carrying a dead incarnation's epoch
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
func New(ki *KernelIface, df *pciaccess.DeviceFile, c *uchan.MultiChan, name string, mac [6]byte) (*Proxy, error) {
	q := c.NumQueues()
	pools, err := allocTxPools(df, q)
	if err != nil {
		return nil, fmt.Errorf("ethproxy: allocating TX pool: %w", err)
	}
	p := &Proxy{
		K: ki, DF: df, C: c, pools: pools,
		perQueue:       TxSlots / q,
		free:           make([][]int, q),
		stalled:        make([]bool, q),
		RxQueueFrames:  make([]uint64, q),
		RxQueueBatches: make([]uint64, q),
		pendingRecycle: make([][]uint64, q),
		guardBufs:      fifo.NewBuffers(maxFrame),
	}
	for i := 0; i < p.perQueue*q; i++ {
		qi := i / p.perQueue
		p.free[qi] = append(p.free[qi], i)
	}
	ifc, err := registerUnique(ki.Net, name, mac, (*proxyDev)(p))
	if err != nil {
		return nil, err
	}
	ki.IfaceNm = ifc.Name
	p.Ifc = ifc
	p.epoch = ifc.Epoch()
	p.qepoch = make([]uint64, q)
	for i := range p.qepoch {
		p.qepoch[i] = ifc.QueueEpoch(i)
	}
	return p, nil
}

// StaleEpochDowncalls is the policy plane's zombie-incarnation evidence:
// downcalls this proxy rejected because the interface moved on to a newer
// driver incarnation.
func (p *Proxy) StaleEpochDowncalls() uint64 { return p.RxStaleEpoch }

// allocTxPools builds the per-queue TX slot pools: one device-file
// allocation per queue, tagged with the queue's stream (the NIC TX engine
// for queue i stamps i+1), so each queue's slots live in that queue's own
// IOMMU sub-domain. The kernel tags its pools itself — a sibling queue's
// descriptor naming a slot here faults at the walk whether or not the
// driver cooperates. The partitions are allocated back to back, so the
// IOVA layout is identical to the former single shared pool.
func allocTxPools(df *pciaccess.DeviceFile, q int) ([]*pciaccess.Alloc, error) {
	per := TxSlots / q
	pools := make([]*pciaccess.Alloc, q)
	for i := range pools {
		pool, err := df.AllocDMAQ(per*TxSlotSize, fmt.Sprintf("TX q%d slot pool", i), false, i+1)
		if err != nil {
			return nil, err
		}
		pools[i] = pool
	}
	return pools, nil
}

// registerUnique registers the netdev under the requested name; on a name
// collision it substitutes into the name's own template (trailing digits
// stripped, like the kernel's "eth%d") until a free slot is found. Any
// other registration failure propagates unchanged.
func registerUnique(net *netstack.Stack, name string, mac [6]byte, dev *proxyDev) (*netstack.Iface, error) {
	ifc, err := net.Register(name, mac, dev)
	if err == nil || !errors.Is(err, netstack.ErrNameTaken) {
		return ifc, err
	}
	base := strings.TrimRight(name, "0123456789")
	if base == "" {
		base = name
	}
	for i := 1; i < 16; i++ {
		ifc, retryErr := net.Register(fmt.Sprintf("%s%d", base, i), mac, dev)
		if retryErr == nil {
			return ifc, nil
		}
		if !errors.Is(retryErr, netstack.ErrNameTaken) {
			return nil, retryErr
		}
	}
	return nil, err
}

// proxyDev is the netstack-facing half: it satisfies the same NetDevice
// contract an in-kernel driver would, by RPC.
type proxyDev Proxy

func (d *proxyDev) p() *Proxy { return (*Proxy)(d) }

// Open forwards ndo_open as a synchronous, interruptible upcall.
func (d *proxyDev) Open() error {
	reply, err := d.p().C.Send(uchan.Msg{Op: OpOpen})
	if err != nil {
		d.p().UpcallErrors++
		return fmt.Errorf("ethproxy: open upcall: %w", err)
	}
	if reply.Args[0] != 0 {
		return fmt.Errorf("ethproxy: driver open failed: %s", reply.Data)
	}
	return nil
}

// Stop forwards ndo_stop.
func (d *proxyDev) Stop() error {
	reply, err := d.p().C.Send(uchan.Msg{Op: OpStop})
	if err != nil {
		d.p().UpcallErrors++
		return fmt.Errorf("ethproxy: stop upcall: %w", err)
	}
	if reply.Args[0] != 0 {
		return fmt.Errorf("ethproxy: driver stop failed: %s", reply.Data)
	}
	return nil
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
// that queue only, never as a blocked kernel thread.
func (d *proxyDev) StartXmitQ(frame []byte, q int) error {
	p := d.p()
	if len(frame) > TxSlotSize {
		return fmt.Errorf("ethproxy: frame of %d bytes exceeds slot size", len(frame))
	}
	if q < 0 || q >= len(p.free) {
		q = 0
	}
	if len(p.free[q]) == 0 {
		p.stalled[q] = true
		return api.ErrTxBusy
	}
	slot := p.free[q][len(p.free[q])-1]
	local := slot % p.perQueue
	iova := p.pools[q].IOVA + mem.Addr(local*TxSlotSize)
	phys := p.pools[q].Phys + mem.Addr(local*TxSlotSize)
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
		p.stalled[q] = true
		return fmt.Errorf("ethproxy: xmit upcall: %w", err)
	}
	p.free[q] = p.free[q][:len(p.free[q])-1]
	p.K.Net.Trace.Mark(trace.ClassNetTx, q, uint64(slot))
	p.K.Net.Trace.Event(trace.ClassNetTx, q, uint64(slot), trace.HopUchanEnq)
	return nil
}

// TxQueueForPorts is the flow-steering hash: the TX queue a flow with the
// given transport ports lands on among nq queues. Kept as an alias of the
// netstack steering function so tests and attack scenarios can target (or
// avoid) a specific queue without duplicating the hash.
func TxQueueForPorts(sport, dport uint16, nq int) int {
	return netstack.TxQueueForPorts(sport, dport, nq)
}

// DoIoctl forwards a device-private ioctl synchronously (the paper's
// SIOCGMIIREG example).
func (d *proxyDev) DoIoctl(cmd uint32, arg []byte) ([]byte, error) {
	p := d.p()
	reply, err := p.C.Send(uchan.Msg{Op: OpIoctl, Args: [6]uint64{uint64(cmd)}, Data: arg})
	if err != nil {
		p.UpcallErrors++
		return nil, fmt.Errorf("ethproxy: ioctl upcall: %w", err)
	}
	if reply.Args[0] != 0 {
		return nil, fmt.Errorf("ethproxy: driver ioctl failed: %s", reply.Data)
	}
	return reply.Data, nil
}

// HandleDowncall services one driver→kernel message in kernel context; the
// SUD-UML runtime routes Ethernet-range ops here. q is the ring the message
// arrived on — the RX partition it delivers into and the TX queue its
// completions credit.
func (p *Proxy) HandleDowncall(q int, m uchan.Msg) {
	if p.Ifc.Epoch() != p.epoch {
		// This proxy belongs to a dead driver incarnation: the interface
		// was (or is being) recovered onto a restarted process. Frames,
		// TX credits and wakes from the old incarnation are dropped and
		// counted — its shared buffers are gone and its slot indices now
		// name the new incarnation's pool.
		p.RxStaleEpoch++
		return
	}
	if q < 0 || q >= len(p.free) {
		q = 0
	}
	switch m.Op {
	case OpNetifRx:
		if p.queueStale(q) {
			return
		}
		if m.Data != nil {
			// Inline (bounced) frame: the bytes were copied through
			// the ring, so only checksum verification remains.
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
		if p.queueStale(q) {
			return
		}
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
		var buf [protocol.MaxRecyclePages]uint64
		epoch, pages, err := protocol.DecodeRecycle(buf[:], m.Data)
		if err != nil {
			p.RecycleBadAck++
			return
		}
		if epoch != uint32(p.epoch) {
			// A frame minted for a dead incarnation (replayed across a
			// recovery, or forged): the pages it names belong to the new
			// incarnation's pool now.
			p.RecycleStaleAck++
			return
		}
		p.RecycleAcks += uint64(len(pages))
	case OpXmitDone:
		slot := int(m.Args[0])
		if slot >= 0 && slot < p.perQueue*len(p.free) {
			sq := slot / p.perQueue
			for _, f := range p.free[sq] {
				if f == slot {
					// A credit for a slot already free: a confused or
					// malicious driver. Crediting it again would hand
					// one slot to two frames.
					p.UpcallErrors++
					return
				}
			}
			if d, ok := p.K.Net.Trace.TakeLat(trace.ClassNetTx, sq, uint64(slot)); ok {
				p.Ifc.Queue(sq).TxLat.Record(d)
			}
			p.K.Net.Trace.Event(trace.ClassNetTx, sq, uint64(slot), trace.HopComplete)
			p.Ifc.TxConfirm(sq)
			p.free[sq] = append(p.free[sq], slot)
			p.maybeWakeQueue(sq)
		}
	case OpCarrierOn:
		p.MirrorUpdates++
		p.Ifc.CarrierOn()
	case OpCarrierOff:
		p.MirrorUpdates++
		p.Ifc.CarrierOff()
	case OpWakeQueue:
		wq := int(m.Args[0])
		if wq < 0 || wq >= len(p.free) {
			wq = 0
		}
		p.maybeWakeQueue(wq)
	default:
		// Unknown downcalls from an untrusted driver are ignored, not
		// trusted (§3.1.1).
		p.UpcallErrors++
	}
}

// queueStale applies the queue-granular epoch discipline to RX deliveries
// on ring q: while the netstack's QueueEpoch is ahead of this proxy's mirror
// the queue is quarantined and not yet re-armed, so everything it delivers
// is dropped and counted — its buffers sit in a revoked sub-domain and its
// sibling queues must not be touched by the cleanup.
func (p *Proxy) queueStale(q int) bool {
	if p.Ifc.QueueEpoch(q) != p.qepoch[q] {
		p.RxStaleQueueEpoch++
		return true
	}
	return false
}

// ParkQueue tells the driver runtime queue q is quarantined: an OpQueueEpoch
// parked frame carrying the epoch the runtime currently holds. Advisory —
// the kernel-side checks enforce the quarantine regardless.
func (p *Proxy) ParkQueue(q int) {
	if q < 0 || q >= len(p.qepoch) {
		return
	}
	err := p.C.ASend(q, uchan.Msg{Op: OpQueueEpoch,
		Data: protocol.EncodeQState(protocol.QState{Queue: q, Epoch: uint32(p.qepoch[q]), Flags: protocol.QStateParked})})
	if err != nil {
		p.UpcallErrors++
	}
}

// RearmQueue re-syncs this proxy with queue q's new incarnation after a
// surgical quarantine: flipped pages parked on the queue's recycle lane are
// flushed back to the driver (its sub-domain is re-armed by now), the epoch
// mirror adopts the queue's new epoch, and an OpQueueEpoch armed frame
// re-syncs the runtime. TX slots are left alone: the driver process
// survived, and the transmits queued ahead of the park frame are still its
// own to send and credit. The revoke and the re-arm run in one loop event,
// so no device DMA ran in between.
func (p *Proxy) RearmQueue(q int) {
	if q < 0 || q >= len(p.qepoch) {
		return
	}
	p.flushRecycleQ(q)
	p.qepoch[q] = p.Ifc.QueueEpoch(q)
	err := p.C.ASend(q, uchan.Msg{Op: OpQueueEpoch,
		Data: protocol.EncodeQState(protocol.QState{Queue: q, Epoch: uint32(p.qepoch[q]), Flags: protocol.QStateArmed})})
	if err != nil {
		p.UpcallErrors++
	}
}

// QueueEpochMirror reports the queue epoch this proxy last re-armed at
// (tests, sudctl).
func (p *Proxy) QueueEpochMirror(q int) uint64 {
	if q < 0 || q >= len(p.qepoch) {
		return 0
	}
	return p.qepoch[q]
}

// wakeThreshold is how many of a queue's slots must be free before a
// stopped queue is woken — waking per released slot would thrash the sender
// (real netdev drivers use the same batching). One eighth of the queue's
// partition: 32 slots on a single-queue proxy, matching the classic value.
func (p *Proxy) wakeThreshold() int {
	t := p.perQueue / 8
	if t < 1 {
		t = 1
	}
	return t
}

// maybeWakeQueue restarts queue q's transmit path once it regains headroom.
// The wake is per queue: a sibling still out of slots stays stopped, and
// only flows hashed onto it keep waiting.
func (p *Proxy) maybeWakeQueue(q int) {
	if !p.stalled[q] || len(p.free[q]) < p.wakeThreshold() {
		return
	}
	p.stalled[q] = false
	p.Ifc.WakeQueue(q)
}

// maxFrame is the longest frame the proxy accepts from the driver.
const maxFrame = netstack.EthHeaderLen + 1500 + 4

// netifRx validates the driver's shared-buffer reference and performs the
// fused guard-copy + checksum (§3.1.2): the kernel's private copy is taken
// before the firewall or any other consumer sees the bytes, so later
// modification of the shared buffer by a malicious driver is harmless. The
// copy lands in a recycled kernel buffer that the proxy takes back once
// NetifRxVerified returns.
func (p *Proxy) netifRx(q int, iova mem.Addr, n int) {
	if n <= 0 || n > maxFrame {
		p.RxBadLength++
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

// FreeTxSlots reports the pool headroom across all queues (tests and pacing
// logic).
func (p *Proxy) FreeTxSlots() int {
	n := 0
	for _, f := range p.free {
		n += len(f)
	}
	return n
}
