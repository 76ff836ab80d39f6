// Package e1000e is the Gigabit Ethernet driver for the e1000 device model,
// written exclusively against the Linux-like API in internal/drivers/api —
// the repository's rendition of the paper's unmodified e1000e driver. The
// identical code runs as a trusted in-kernel driver (the Figure 8 baseline)
// and inside an untrusted SUD-UML process; it cannot tell the difference.
//
// The driver is a scaled-down but structurally faithful Linux NIC driver:
// EEPROM MAC read at probe, coherent descriptor rings, NAPI-style ring
// polling from the interrupt handler, interrupt throttling via ITR, TX
// descriptor reclaim with queue stop/wake backpressure, and a watchdog timer
// mirroring link state to the stack.
package e1000e

import (
	"fmt"

	"sud/internal/devices/e1000"
	"sud/internal/drivers/api"
	"sud/internal/fifo"
	"sud/internal/mem"
)

// Ring and buffer geometry, as the Linux driver configures it (§4.2 notes
// the e1000e allocates 256 buffers for each ring).
const (
	RingSize = 256
	BufSize  = 2048

	// itrBulk programs ~8000 interrupts/s for bulk traffic (ITR units
	// are 256 ns); itrLatency disables throttling for latency-sensitive
	// traffic. The driver switches between them like the Linux e1000e's
	// dynamic InterruptThrottleRate mode.
	itrBulk    = 488
	itrLatency = 0

	// watchdogJiffies is the link watchdog period (2 s at HZ=250... the
	// Linux driver also uses 2 s).
	watchdogJiffies = 500
)

// Driver is the module object.
type Driver struct {
	queues   int
	pageFlip bool
}

// New returns the driver module (single TX queue, the Figure 8 baseline).
func New() api.Driver { return Driver{queues: 1} }

// NewQ returns the driver module configured for up to n hardware TX and RX
// queues; at probe the counts are clamped to what the bound device actually
// exposes (e1000.RegTQC / e1000.RegRQC), so a mismatch degrades to fewer
// queues instead of programming banks the hardware will never service.
func NewQ(n int) api.Driver {
	if n < 1 {
		n = 1
	}
	if n > e1000.MaxTxQueues {
		n = e1000.MaxTxQueues
	}
	return Driver{queues: n}
}

// NewFlipQ returns the driver configured for the page-flip fast path: RX
// descriptors over delivered buffer pages are re-armed only when the host
// recycles the page (api.PageRecycler), and TX tail doorbells are staged and
// flushed once per host-call batch (api.BatchKicker). Only hosts that run the
// GuardPageFlip proxy mode and call KickPending at drain end may use it; the
// stock constructors keep the Figure 8 behaviour bit for bit.
func NewFlipQ(n int) api.Driver {
	d := NewQ(n).(Driver)
	d.pageFlip = true
	return d
}

// Name implements api.Driver.
func (Driver) Name() string { return "e1000e" }

// Match implements api.Driver: claim Intel 82574L.
func (Driver) Match(vendor, device uint16) bool {
	return vendor == 0x8086 && device == 0x10D3
}

// Probe implements api.Driver.
func (d Driver) Probe(env api.Env) (api.Instance, error) {
	q := d.queues
	if q < 1 {
		q = 1
	}
	n := &nic{env: env, queues: q, rxQueues: q, pageAware: d.pageFlip, coalesceTx: d.pageFlip}
	if err := n.probe(); err != nil {
		return nil, err
	}
	return n, nil
}

// txq is one transmit queue: a descriptor ring, its buffer pool, and the
// software head/tail state.
type txq struct {
	ring api.DMABuf
	bufs api.DMABuf

	tail     int // next descriptor to fill
	reclaim  int // next descriptor to reclaim
	inFlight int
	stopped  bool
	kick     bool // staged tail doorbell (coalesceTx)
}

// rxq is one receive queue: a descriptor ring, its buffer pool, and the
// next-descriptor-to-poll cursor.
type rxq struct {
	ring api.DMABuf
	bufs api.DMABuf

	next int // next descriptor to poll

	// deferred holds consumed descriptor indices not yet re-armed, in ring
	// order (pageAware: the host owns their buffer pages until it recycles
	// them back).
	deferred fifo.Queue[int]
}

type nic struct {
	env      api.Env
	mmio     api.MMIO
	net      api.NetKernel
	mac      [6]byte
	queues   int
	rxQueues int

	tx []txq
	rx []rxq

	// desc is the scratch descriptor StartXmitQ and armRxDesc build before
	// writeDesc copies it into a ring; nothing runs between the two.
	desc [e1000.DescSize]byte
	// ioctlReply holds DoIoctl's answer until the next DoIoctl.
	ioctlReply [1]byte

	opened  bool
	removed bool
	carrier bool

	// Page-flip fast-path knobs (NewFlipQ): defer RX re-arm until the host
	// recycles buffer pages; stage TX tail doorbells until KickPending.
	pageAware  bool
	coalesceTx bool

	// Dynamic ITR state.
	itrCur    uint32
	lowStreak int

	// Counters (visible to tests and the stats ioctl).
	TxPkts, RxPkts, TxDrops uint64
	Interrupts              uint64
	// TxDoorbells counts TDT MMIO writes (doorbells-per-packet is the
	// submit-side coalescing metric); RxDoorbells counts RDT writes.
	TxDoorbells, RxDoorbells uint64
}

var _ api.NetDevice = (*nic)(nil)
var _ api.Instance = (*nic)(nil)

func (n *nic) probe() error {
	env := n.env
	if err := env.EnableDevice(); err != nil {
		return err
	}
	if err := env.SetMaster(); err != nil {
		return err
	}
	m, err := env.IORemap(0)
	if err != nil {
		return err
	}
	n.mmio = m

	// Reset the function, then bring the MAC out of reset.
	m.Write32(e1000.RegCTRL, e1000.CtrlRST)
	m.Write32(e1000.RegCTRL, e1000.CtrlSLU)

	// Read the MAC address from EEPROM words 0..2.
	for w := 0; w < 3; w++ {
		m.Write32(e1000.RegEERD, uint32(w)<<8|e1000.EerdStart)
		v := m.Read32(e1000.RegEERD)
		if v&e1000.EerdDone == 0 {
			return fmt.Errorf("e1000e: EEPROM read timeout (word %d)", w)
		}
		n.mac[2*w] = byte(v >> 16)
		n.mac[2*w+1] = byte(v >> 24)
	}

	// Clamp the configured queue counts to what the hardware exposes, as
	// the Linux driver sizes its rings from the device's capabilities —
	// a stale module parameter must degrade, not wedge silent queues.
	if tqc := int(m.Read32(e1000.RegTQC)); tqc >= 1 && tqc < n.queues {
		env.Logf("e1000e: device exposes %d TX queues, using %d (not %d)", tqc, tqc, n.queues)
		n.queues = tqc
	}
	if rqc := int(m.Read32(e1000.RegRQC)); rqc >= 1 && rqc < n.rxQueues {
		env.Logf("e1000e: device exposes %d RX queues, using %d (not %d)", rqc, rqc, n.rxQueues)
		n.rxQueues = rqc
	}

	nk, err := env.RegisterNetDev("eth0", n.mac, n)
	if err != nil {
		return err
	}
	n.net = nk
	env.Logf("e1000e: probed, MAC %02x:%02x:%02x:%02x:%02x:%02x",
		n.mac[0], n.mac[1], n.mac[2], n.mac[3], n.mac[4], n.mac[5])
	return nil
}

// Remove implements api.Instance.
func (n *nic) Remove() {
	if n.opened {
		_ = n.Stop()
	}
	n.removed = true
}

// --- api.NetDevice ----------------------------------------------------------

// Open implements ndo_open: allocate rings, program the device, request the
// interrupt, enable TX/RX.
func (n *nic) Open() error {
	if n.opened {
		return nil
	}
	env := n.env
	var err error
	m := n.mmio
	n.tx = make([]txq, n.queues)
	for q := range n.tx {
		t := &n.tx[q]
		// The TX engine for queue q stamps stream q+1 on its DMA; tagging
		// the ring and buffers confines them to that queue's sub-domain on
		// hosts with the per-queue split.
		if t.ring, err = api.AllocCoherentQ(env, RingSize*e1000.DescSize, q+1); err != nil {
			return err
		}
		if t.bufs, err = api.AllocCachingQ(env, RingSize*BufSize, q+1); err != nil {
			return err
		}
		m.Write32(e1000.TxQOff(q, e1000.RegTDBAL), uint32(t.ring.BusAddr()))
		m.Write32(e1000.TxQOff(q, e1000.RegTDBAH), uint32(uint64(t.ring.BusAddr())>>32))
		m.Write32(e1000.TxQOff(q, e1000.RegTDLEN), RingSize*e1000.DescSize)
		m.Write32(e1000.TxQOff(q, e1000.RegTDH), 0)
		m.Write32(e1000.TxQOff(q, e1000.RegTDT), 0)
	}
	n.rx = make([]rxq, n.rxQueues)
	for q := range n.rx {
		r := &n.rx[q]
		if r.ring, err = api.AllocCoherentQ(env, RingSize*e1000.DescSize, q+1); err != nil {
			return err
		}
		if r.bufs, err = api.AllocCachingQ(env, RingSize*BufSize, q+1); err != nil {
			return err
		}
		m.Write32(e1000.RxQOff(q, e1000.RegRDBAL), uint32(r.ring.BusAddr()))
		m.Write32(e1000.RxQOff(q, e1000.RegRDBAH), uint32(uint64(r.ring.BusAddr())>>32))
		m.Write32(e1000.RxQOff(q, e1000.RegRDLEN), RingSize*e1000.DescSize)
		m.Write32(e1000.RxQOff(q, e1000.RegRDH), 0)

		// Arm every RX descriptor with a buffer; leave one slot to
		// distinguish full from empty.
		for i := 0; i < RingSize; i++ {
			n.armRxDesc(q, i)
		}
		m.Write32(e1000.RxQOff(q, e1000.RegRDT), RingSize-1)
		r.next = 0
	}
	// Spread flows round-robin across the RX rings through the RSS
	// redirection table, as the Linux driver's default RSS init does. A
	// single-queue configuration leaves the table at its reset default
	// (everything to ring 0).
	if n.rxQueues > 1 {
		for i := 0; i < e1000.RetaEntries; i++ {
			m.Write32(e1000.RegRETA+uint64(4*i), uint32(i%n.rxQueues))
		}
	}

	if err := env.RequestIRQ(n.irq); err != nil {
		return err
	}
	n.itrCur = itrBulk
	m.Write32(e1000.RegITR, itrBulk)
	m.Write32(e1000.RegIMS, e1000.IntTXDW|e1000.IntRXT0|e1000.IntRXO|e1000.IntLSC)
	m.Write32(e1000.RegTCTL, e1000.TctlEN)
	m.Write32(e1000.RegRCTL, e1000.RctlEN)

	n.opened = true
	n.watchdog()
	return nil
}

// Stop implements ndo_stop.
func (n *nic) Stop() error {
	if !n.opened {
		return nil
	}
	n.opened = false
	m := n.mmio
	m.Write32(e1000.RegIMC, 0xFFFFFFFF)
	m.Write32(e1000.RegTCTL, 0)
	m.Write32(e1000.RegRCTL, 0)
	if err := n.env.FreeIRQ(); err != nil {
		return err
	}
	var bufs []api.DMABuf
	for q := range n.rx {
		bufs = append(bufs, n.rx[q].ring, n.rx[q].bufs)
	}
	for q := range n.tx {
		bufs = append(bufs, n.tx[q].ring, n.tx[q].bufs)
	}
	for _, b := range bufs {
		if b != nil {
			if err := n.env.FreeDMA(b); err != nil {
				return err
			}
		}
	}
	n.tx, n.rx = nil, nil
	if n.carrier {
		n.carrier = false
		n.net.CarrierOff()
	}
	return nil
}

// TxQueues implements api.MultiQueueNetDevice.
func (n *nic) TxQueues() int { return n.queues }

// StartXmit implements ndo_start_xmit on queue 0.
func (n *nic) StartXmit(frame []byte) error { return n.StartXmitQ(frame, 0) }

// StartXmitQ implements api.MultiQueueNetDevice: fill a descriptor on the
// given hardware queue and ring that queue's tail doorbell.
func (n *nic) StartXmitQ(frame []byte, q int) error {
	if !n.opened {
		return fmt.Errorf("e1000e: device closed")
	}
	if q < 0 || q >= n.queues {
		q = 0
	}
	if len(frame) > BufSize {
		n.TxDrops++
		return fmt.Errorf("e1000e: frame too large (%d bytes)", len(frame))
	}
	t := &n.tx[q]
	if t.inFlight >= RingSize-1 {
		// Ring full: flush any staged doorbell so the device can make
		// progress, reclaim completed descriptors inline, then give up
		// and stop the queue (the stack retries after WakeQueue).
		n.kickTxQ(q)
		n.reclaimTx()
		if t.inFlight >= RingSize-1 {
			t.stopped = true
			return api.ErrTxBusy
		}
	}
	slot := t.tail
	bufOff := slot * BufSize
	// Copy the frame into the slot's DMA buffer. (The zero-copy view is
	// used when available; Write charges the same per-byte cost.)
	if view, ok := t.bufs.Slice(bufOff, len(frame)); ok {
		copy(view, frame)
	} else if err := t.bufs.Write(bufOff, frame); err != nil {
		return err
	}
	// Build the legacy TX descriptor.
	desc := &n.desc
	*desc = [e1000.DescSize]byte{}
	putLE64(desc[0:8], uint64(t.bufs.BusAddr())+uint64(bufOff))
	putLE16(desc[8:10], uint16(len(frame)))
	desc[11] = e1000.TxCmdEOP | e1000.TxCmdRS
	if err := n.writeDesc(t.ring, slot, desc[:]); err != nil {
		return err
	}
	t.tail = (t.tail + 1) % RingSize
	t.inFlight++
	if n.coalesceTx {
		// Stage the tail doorbell; KickPending flushes it once for the
		// whole batch of transmits the host delivered in this drain.
		t.kick = true
	} else {
		n.mmio.Write32(e1000.TxQOff(q, e1000.RegTDT), uint32(t.tail))
		n.TxDoorbells++
	}
	n.TxPkts++
	return nil
}

// kickTxQ flushes queue q's staged tail doorbell, if any.
func (n *nic) kickTxQ(q int) {
	t := &n.tx[q]
	if !t.kick {
		return
	}
	t.kick = false
	n.mmio.Write32(e1000.TxQOff(q, e1000.RegTDT), uint32(t.tail))
	n.TxDoorbells++
}

// KickPending implements api.BatchKicker: flush every staged TX tail doorbell
// in one pass — one MMIO write per queue that transmitted since the last
// kick, however many frames the batch carried.
func (n *nic) KickPending() {
	if !n.opened {
		return
	}
	for q := range n.tx {
		n.kickTxQ(q)
	}
}

// DoIoctl implements ndo_do_ioctl; SIOCGMIIREG reports link status, the
// paper's example of a synchronous upcall.
func (n *nic) DoIoctl(cmd uint32, arg []byte) ([]byte, error) {
	switch cmd {
	case api.IoctlGetMIIStatus:
		status := n.mmio.Read32(e1000.RegSTATUS)
		n.ioctlReply[0] = byte(status & e1000.StatusLU)
		return n.ioctlReply[:], nil
	default:
		return nil, fmt.Errorf("e1000e: unsupported ioctl %#x", cmd)
	}
}

// --- interrupt path ---------------------------------------------------------

func (n *nic) irq() {
	if !n.opened {
		return
	}
	n.Interrupts++
	work := 0
	icr := n.mmio.Read32(e1000.RegICR) // read clears
	if icr&e1000.IntLSC != 0 {
		n.checkLink()
	}
	if icr&e1000.IntTXDW != 0 {
		work += n.reclaimTx()
	}
	if icr&(e1000.IntRXT0|e1000.IntRXO) != 0 {
		for q := range n.rx {
			work += n.pollRx(q)
		}
	}
	n.tuneITR(work)
	n.env.IRQAck()
}

// tuneITR is the dynamic interrupt moderation policy: sparse per-interrupt
// work means latency-bound traffic (drop throttling); deep batches mean bulk
// streams (throttle to ~8000/s).
func (n *nic) tuneITR(work int) {
	switch {
	case work <= 2:
		n.lowStreak++
		if n.lowStreak >= 3 && n.itrCur != itrLatency {
			n.itrCur = itrLatency
			n.mmio.Write32(e1000.RegITR, itrLatency)
		}
	case work >= 8:
		n.lowStreak = 0
		if n.itrCur != itrBulk {
			n.itrCur = itrBulk
			n.mmio.Write32(e1000.RegITR, itrBulk)
		}
	default:
		n.lowStreak = 0
	}
}

// reclaimTx frees completed TX descriptors on every queue and wakes the
// stack per queue that regained space. It returns the number of descriptors
// freed.
func (n *nic) reclaimTx() int {
	freed := 0
	for q := range n.tx {
		t := &n.tx[q]
		qFreed := 0
		for t.inFlight > 0 {
			desc, err := n.readDesc(t.ring, t.reclaim)
			if err != nil || desc[12]&e1000.TxStaDD == 0 {
				break
			}
			t.reclaim = (t.reclaim + 1) % RingSize
			t.inFlight--
			qFreed++
		}
		if qFreed > 0 && t.stopped {
			t.stopped = false
			n.net.WakeQueue(q)
		}
		freed += qFreed
	}
	return freed
}

// pollRx drains RX ring q NAPI-style: process every completed descriptor,
// hand frames to the stack tagged with their queue, re-arm and return
// descriptors to the hardware. It returns the number of frames processed.
func (n *nic) pollRx(q int) int {
	r := &n.rx[q]
	processed := 0
	for {
		desc, err := n.readDesc(r.ring, r.next)
		if err != nil || desc[12]&e1000.RxStaDD == 0 {
			break
		}
		length := int(le16(desc[8:10]))
		bufOff := r.next * BufSize
		if length > 0 && length <= BufSize {
			var frame []byte
			if view, ok := r.bufs.Slice(bufOff, length); ok {
				frame = view // zero-copy into the stack, like an skb
			} else {
				frame = make([]byte, length)
				if err := r.bufs.Read(bufOff, frame); err != nil {
					break
				}
			}
			n.RxPkts++
			n.net.NetifRx(frame, q)
		}
		if n.pageAware {
			// The host may flip this buffer's page to the kernel; the
			// descriptor is re-armed when the page comes back through
			// RecyclePages.
			r.deferred.Push(r.next)
		} else {
			n.armRxDesc(q, r.next)
			n.mmio.Write32(e1000.RxQOff(q, e1000.RegRDT), uint32(r.next))
			n.RxDoorbells++
		}
		r.next = (r.next + 1) % RingSize
		processed++
		if processed >= RingSize {
			break // bounded work per interrupt, as NAPI budgets
		}
	}
	return processed
}

// RecyclePages implements api.PageRecycler: the host returns buffer pages it
// took from RX ring q — flipped to the kernel and since remapped, or merely
// borrowed for a guard copy. Pages come back in consumption order, so each
// one re-arms the matching prefix of deferred descriptors; one tail doorbell
// then returns the whole batch to the hardware.
func (n *nic) RecyclePages(q int, pages []mem.Addr) {
	if !n.opened || q < 0 || q >= len(n.rx) {
		return
	}
	r := &n.rx[q]
	base := r.bufs.BusAddr()
	last := -1
	for _, page := range pages {
		if page < base || page >= base+mem.Addr(RingSize*BufSize) {
			continue // not this ring's pool
		}
		for r.deferred.Len() > 0 {
			d := r.deferred.Peek()
			if mem.PageAlign(base+mem.Addr(d*BufSize)) != page {
				break
			}
			n.armRxDesc(q, d)
			r.deferred.Pop()
			last = d
		}
	}
	if last >= 0 {
		n.mmio.Write32(e1000.RxQOff(q, e1000.RegRDT), uint32(last))
		n.RxDoorbells++
	}
}

// armRxDesc points ring q's descriptor i at its buffer with a cleared
// status.
func (n *nic) armRxDesc(q, i int) {
	r := &n.rx[q]
	desc := &n.desc
	*desc = [e1000.DescSize]byte{}
	putLE64(desc[0:8], uint64(r.bufs.BusAddr())+uint64(i*BufSize))
	if err := n.writeDesc(r.ring, i, desc[:]); err != nil {
		n.env.Logf("e1000e: arm rx desc %d/%d: %v", q, i, err)
	}
}

// --- link watchdog ----------------------------------------------------------

func (n *nic) watchdog() {
	if !n.opened || n.removed {
		return
	}
	n.checkLink()
	// Flush any tail doorbell a host without drain-end kicks left staged,
	// so a misconfigured pairing degrades to slow instead of wedged.
	n.KickPending()
	n.env.Timer(watchdogJiffies, n.watchdog)
}

func (n *nic) checkLink() {
	up := n.mmio.Read32(e1000.RegSTATUS)&e1000.StatusLU != 0
	if up && !n.carrier {
		n.carrier = true
		n.net.CarrierOn()
		n.env.Logf("e1000e: link up")
	} else if !up && n.carrier {
		n.carrier = false
		n.net.CarrierOff()
		n.env.Logf("e1000e: link down")
	}
}

// --- descriptor access ------------------------------------------------------

func (n *nic) writeDesc(ring api.DMABuf, i int, desc []byte) error {
	if view, ok := ring.Slice(i*e1000.DescSize, e1000.DescSize); ok {
		copy(view, desc)
		return nil
	}
	return ring.Write(i*e1000.DescSize, desc)
}

func (n *nic) readDesc(ring api.DMABuf, i int) ([]byte, error) {
	if view, ok := ring.Slice(i*e1000.DescSize, e1000.DescSize); ok {
		return view, nil
	}
	desc := make([]byte, e1000.DescSize)
	err := ring.Read(i*e1000.DescSize, desc)
	return desc, err
}

// MAC returns the address read from EEPROM (tests).
func (n *nic) MAC() [6]byte { return n.mac }

func le16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }

func putLE16(b []byte, v uint16) { b[0] = byte(v); b[1] = byte(v >> 8) }

func putLE64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
