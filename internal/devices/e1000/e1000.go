// Package e1000 models an Intel 8254x/e1000e-class Gigabit Ethernet
// controller at register level: legacy 16-byte TX/RX descriptor rings fetched
// and written back via DMA, EEPROM-backed MAC address, interrupt throttling
// (ITR), and MSI signalling. The e1000e driver in internal/drivers/e1000e
// programs it exactly as the Linux driver programs real silicon: through BAR0
// registers and in-memory descriptor rings — so a driver bug (or attack)
// that programs a bad DMA address produces a real IOMMU fault.
package e1000

import (
	"sud/internal/ethlink"
	"sud/internal/fifo"
	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/sim"
	"sud/internal/trace"
)

// Register offsets in BAR0 (subset of the 8254x map).
const (
	RegCTRL   = 0x0000
	RegSTATUS = 0x0008
	RegEERD   = 0x0014
	RegICR    = 0x00C0
	RegITR    = 0x00C4
	RegIMS    = 0x00D0
	RegIMC    = 0x00D8
	RegRCTL   = 0x0100
	RegTCTL   = 0x0400
	// RegTQC reports the hardware TX queue count (read-only; our stand-in
	// for the queue-capability fields real multi-queue parts expose).
	RegTQC = 0x0408
	// RegRQC reports the hardware RX queue count (read-only), the receive
	// mirror of RegTQC.
	RegRQC   = 0x040C
	RegRDBAL = 0x2800
	RegRDBAH = 0x2804
	RegRDLEN = 0x2808
	RegRDH   = 0x2810
	RegRDT   = 0x2818
	RegTDBAL = 0x3800
	RegTDBAH = 0x3804
	RegTDLEN = 0x3808
	RegTDH   = 0x3810
	RegTDT   = 0x3818
	RegRAL   = 0x5400
	RegRAH   = 0x5404

	// RegRETA is the base of the RSS redirection table: RetaEntries
	// 32-bit registers, each holding an RX queue index. Received flows are
	// hashed over their transport ports and the hash indexes this table to
	// pick the RX descriptor ring — receive-side scaling as on 82574/82576
	// parts. Hardware masks each written entry to retaEntryMask (reserved
	// bits read back zero), so an out-of-range value written by a buggy or
	// malicious driver degrades to a valid queue instead of wild state.
	RegRETA = 0x5C00
	// RetaEntries is the redirection table size.
	RetaEntries = 32
	// retaEntryMask keeps a table entry inside [0, MaxRxQueues).
	retaEntryMask = MaxRxQueues - 1

	// txQStride separates the per-queue TX register banks: queue q's
	// TDBAL..TDT live at RegTDBAL+q*txQStride, as on 82571-class parts
	// (the second queue's TDBAL1 sits at 0x3900).
	txQStride = 0x100

	// rxQStride separates the per-queue RX register banks in the same way:
	// queue q's RDBAL..RDT live at RegRDBAL+q*rxQStride.
	rxQStride = 0x100

	// BARSize is the size of BAR0 (128 KiB, as on real parts).
	BARSize = 0x20000
)

// CTRL bits.
const (
	CtrlSLU = 1 << 6  // set link up
	CtrlRST = 1 << 26 // device reset
)

// STATUS bits.
const (
	StatusLU = 1 << 1 // link up
)

// Interrupt cause bits (ICR/IMS/IMC).
const (
	IntTXDW  = 1 << 0 // transmit descriptor written back
	IntLSC   = 1 << 2 // link status change
	IntRXDMT = 1 << 4 // rx descriptors minimum threshold
	IntRXO   = 1 << 6 // receiver overrun
	IntRXT0  = 1 << 7 // receiver timer (frame received)
)

// RCTL/TCTL enable bits.
const (
	RctlEN = 1 << 1
	TctlEN = 1 << 1
)

// EERD bits: write addr<<8 | Start; poll Done; data in bits 16..31.
const (
	EerdStart = 1 << 0
	EerdDone  = 1 << 4
)

// Descriptor layout: both TX and RX descriptors are 16 bytes.
const DescSize = 16

// TX descriptor command/status bits.
const (
	TxCmdEOP = 1 << 0 // end of packet
	TxCmdRS  = 1 << 3 // report status (request DD writeback)
	TxStaDD  = 1 << 0 // descriptor done
)

// RX descriptor status bits.
const (
	RxStaDD  = 1 << 0
	RxStaEOP = 1 << 1
)

// Params tunes the device's internal engine. Defaults reproduce the
// small-packet forwarding limits of e1000e-class NICs (a few hundred
// kpackets/s), which is what caps UDP_STREAM in Figure 8; large frames are
// wire-limited instead.
type Params struct {
	// TxPerPacket / RxPerPacket are the fixed per-packet engine costs
	// (descriptor scheduling, writeback posting), on top of modelled DMA
	// transfer time.
	TxPerPacket sim.Duration
	RxPerPacket sim.Duration

	// TxQueues is the number of hardware transmit queues (1..MaxTxQueues;
	// 0 means 1). Each queue has its own register bank and descriptor
	// engine, so queues make progress in parallel — the per-packet engine
	// cost serialises within a queue, not across queues. The shared wire
	// still serialises frames (ethlink models the PHY FIFO).
	TxQueues int

	// RxQueues is the number of hardware receive queues (1..MaxRxQueues;
	// 0 means 1). Received frames are steered to a ring by the RSS hash
	// through the RETA redirection table; each ring has its own register
	// bank, packet FIFO and receive engine, so rings drain in parallel.
	RxQueues int
}

// MaxTxQueues is the most TX queues the device model exposes.
const MaxTxQueues = 4

// MaxRxQueues is the most RX queues the device model exposes.
const MaxRxQueues = 4

// DefaultParams matches the calibration in internal/sim/costs.go.
func DefaultParams() Params {
	return Params{
		TxPerPacket: 2500 * sim.Nanosecond,
		RxPerPacket: 3300 * sim.Nanosecond,
	}
}

// MultiQueueParams is DefaultParams with queues TX and RX queues enabled.
func MultiQueueParams(queues int) Params {
	p := DefaultParams()
	p.TxQueues = queues
	p.RxQueues = queues
	return p
}

// NIC is one e1000 device instance.
type NIC struct {
	pci.FuncBase

	loop   *sim.Loop
	params Params

	link *ethlink.Link
	side int

	mac    [6]byte
	eeprom [64]uint16

	regs map[uint64]uint32
	tr   *trace.Tracer

	// TX engine state, one engine per hardware queue.
	txActive    [MaxTxQueues]bool
	txBusyUntil [MaxTxQueues]sim.Time

	// RX engine state, one engine (and packet FIFO) per hardware queue.
	rxQueue     [MaxRxQueues]fifo.Bytes // frames awaiting ring placement
	rxActive    [MaxRxQueues]bool
	rxBusyUntil [MaxRxQueues]sim.Time

	// Engine DMA buffers. Each engine step runs to completion before the
	// next is scheduled, so one set serves every queue; ethlink.Send
	// copies the frame it is handed. rxFrame holds the frame rxStep is
	// placing, so the frame leaves the RX FIFO before its DMA runs.
	txDesc, rxDesc [DescSize]byte
	txFrame        [ethlink.MaxFrame]byte
	rxFrame        []byte

	// Engine steps and the ITR-deferred interrupt, bound once in New.
	txStepFn [MaxTxQueues]func()
	rxStepFn [MaxRxQueues]func()
	itrFn    func()

	// Interrupt moderation.
	lastIntAt  sim.Time
	intPending bool

	// Counters.
	TxPackets, RxPackets   uint64
	TxBytes, RxBytes       uint64
	RxDropsNoDesc          uint64
	DMAFaults              uint64
	InterruptsRaised       uint64
	InterruptsSuppressedBy uint64 // suppressed by masked/disabled MSI
	// TDTWrites/RDTWrites count tail doorbell MMIO arrivals — the ground
	// truth the submit-side doorbell-coalescing metric divides by.
	TDTWrites, RDTWrites uint64
}

// New creates an e1000 NIC with the given identity, MAC and BAR0 base. It
// must then be attached to a link with AttachLink and to the fabric via
// Machine.AttachDevice.
func New(loop *sim.Loop, bdf pci.BDF, barBase uint64, macAddr [6]byte, p Params) *NIC {
	n := &NIC{
		loop:   loop,
		params: p,
		mac:    macAddr,
		regs:   make(map[uint64]uint32),
	}
	cfg := pci.NewConfigSpace(0x8086, 0x10D3, 0x02) // 82574L, class = network
	cfg.SetBAR(0, barBase, BARSize, false)
	cfg.AddMSICapability()
	n.InitFunc(bdf, cfg)
	// EEPROM words 0..2 hold the MAC address.
	n.eeprom[0] = uint16(macAddr[0]) | uint16(macAddr[1])<<8
	n.eeprom[1] = uint16(macAddr[2]) | uint16(macAddr[3])<<8
	n.eeprom[2] = uint16(macAddr[4]) | uint16(macAddr[5])<<8
	// Per-vector MSI masking is level-sensitive on unmask: if causes are
	// pending when the mask clears, the message fires (SUD's interrupt
	// ack path relies on this, §3.2.2).
	cfg.OnMSIChange = func() {
		if !cfg.MSI().Masked {
			n.maybeInterrupt()
		}
	}
	for q := range n.txStepFn {
		n.txStepFn[q] = func() { n.txStep(q) }
	}
	for q := range n.rxStepFn {
		n.rxStepFn[q] = func() { n.rxStep(q) }
	}
	n.itrFn = func() {
		n.intPending = false
		n.maybeInterrupt()
	}
	n.reset()
	return n
}

// SetTracer hands the NIC the machine's tracing plane (called by
// Machine.AttachDevice). The receive engine stamps each frame's buffer IOVA
// at DMA-writeback time; the SUD proxy pops the stamp at stack delivery,
// closing the device→kernel end-to-end receive latency.
func (n *NIC) SetTracer(tr *trace.Tracer) { n.tr = tr }

// AttachLink connects the NIC's PHY to side `side` of link.
func (n *NIC) AttachLink(link *ethlink.Link, side int) {
	n.link = link
	n.side = side
}

// MAC returns the burned-in address.
func (n *NIC) MAC() [6]byte { return n.mac }

func (n *NIC) reset() {
	for k := range n.regs {
		delete(n.regs, k)
	}
	n.regs[RegITR] = 0
	for q := range n.rxQueue {
		n.rxQueue[q].Clear()
	}
	n.intPending = false
	// RAL/RAH from EEPROM, as hardware autoloads.
	n.regs[RegRAL] = uint32(n.mac[0]) | uint32(n.mac[1])<<8 | uint32(n.mac[2])<<16 | uint32(n.mac[3])<<24
	n.regs[RegRAH] = uint32(n.mac[4]) | uint32(n.mac[5])<<8 | 1<<31
}

func (n *NIC) linkUp() bool {
	return n.link != nil && n.link.Carrier() && n.regs[RegCTRL]&CtrlSLU != 0
}

// MMIORead implements pci.Device.
func (n *NIC) MMIORead(bar int, off uint64, size int) uint64 {
	if bar != 0 {
		return ^uint64(0)
	}
	switch off {
	case RegSTATUS:
		var v uint32
		if n.linkUp() {
			v |= StatusLU
		}
		return uint64(v)
	case RegTQC:
		return uint64(n.txQueues())
	case RegRQC:
		return uint64(n.rxQueues())
	case RegICR:
		// Read-to-clear.
		v := n.regs[RegICR]
		n.regs[RegICR] = 0
		return uint64(v)
	default:
		return uint64(n.regs[off])
	}
}

// MMIOWrite implements pci.Device.
func (n *NIC) MMIOWrite(bar int, off uint64, size int, v uint64) {
	if bar != 0 {
		return
	}
	val := uint32(v)
	switch off {
	case RegCTRL:
		if val&CtrlRST != 0 {
			n.reset()
			return
		}
		n.regs[RegCTRL] = val
	case RegEERD:
		if val&EerdStart != 0 {
			addr := (val >> 8) & 0xFF
			data := uint32(0xFFFF)
			if int(addr) < len(n.eeprom) {
				data = uint32(n.eeprom[addr])
			}
			n.regs[RegEERD] = EerdDone | data<<16
		}
	case RegIMS:
		n.regs[RegIMS] |= val
		n.maybeInterrupt()
	case RegIMC:
		n.regs[RegIMS] &^= val
	case RegICR:
		n.regs[RegICR] &^= val // write-one-to-clear
	default:
		if q, rel, ok := rxQReg(off); ok && q < n.rxQueues() {
			switch rel {
			case RegRDT:
				n.RDTWrites++
				n.regs[off] = val % n.rxRingLen(q)
				n.kickRx(q)
			case RegRDH:
				n.regs[off] = val % n.rxRingLen(q)
			default:
				n.regs[off] = val
			}
			return
		}
		if q, rel, ok := txQReg(off); ok && q < n.txQueues() {
			switch rel {
			case RegTDT:
				n.TDTWrites++
				n.regs[off] = val % n.txRingLen(q)
				n.kickTx(q)
			case RegTDH:
				n.regs[off] = val % n.txRingLen(q)
			default:
				n.regs[off] = val
			}
			return
		}
		if retaIndexFor(off) >= 0 {
			// Reserved bits of a redirection entry are hardwired to
			// zero: out-of-range queue values cannot be stored.
			n.regs[off] = val & retaEntryMask
			return
		}
		n.regs[off] = val
	}
}

// rxQReg maps a register offset into (queue, base-queue register). It
// reports ok for any offset inside the per-queue RX banks.
func rxQReg(off uint64) (q int, rel uint64, ok bool) {
	if off < RegRDBAL || off >= RegRDBAL+MaxRxQueues*rxQStride {
		return 0, 0, false
	}
	return int((off - RegRDBAL) / rxQStride), RegRDBAL + (off-RegRDBAL)%rxQStride, true
}

// RxQOff returns queue q's offset for one of the base RX registers
// (RegRDBAL..RegRDT) — the address a multi-queue driver programs.
func RxQOff(q int, reg uint64) uint64 { return reg + uint64(q)*rxQStride }

// retaIndexFor returns the redirection-table index a register offset names,
// or -1 if the offset is outside the RETA bank.
func retaIndexFor(off uint64) int {
	if off < RegRETA || off >= RegRETA+4*RetaEntries || (off-RegRETA)%4 != 0 {
		return -1
	}
	return int((off - RegRETA) / 4)
}

// txQReg maps a register offset into (queue, base-queue register). It
// reports ok for any offset inside the per-queue TX banks.
func txQReg(off uint64) (q int, rel uint64, ok bool) {
	if off < RegTDBAL || off >= RegTDBAL+MaxTxQueues*txQStride {
		return 0, 0, false
	}
	return int((off - RegTDBAL) / txQStride), RegTDBAL + (off-RegTDBAL)%txQStride, true
}

// TxQOff returns queue q's offset for one of the base TX registers
// (RegTDBAL..RegTDT) — the address a multi-queue driver programs.
func TxQOff(q int, reg uint64) uint64 { return reg + uint64(q)*txQStride }

// txQueues returns the active TX queue count.
func (n *NIC) txQueues() int {
	q := n.params.TxQueues
	if q < 1 {
		return 1
	}
	if q > MaxTxQueues {
		return MaxTxQueues
	}
	return q
}

// rxQueues returns the active RX queue count.
func (n *NIC) rxQueues() int {
	q := n.params.RxQueues
	if q < 1 {
		return 1
	}
	if q > MaxRxQueues {
		return MaxRxQueues
	}
	return q
}

// IORead/IOWrite: the e1000 has no IO BAR in our model.
func (n *NIC) IORead(bar int, off uint64, size int) uint32     { return 0xFFFFFFFF }
func (n *NIC) IOWrite(bar int, off uint64, size int, v uint32) {}

func (n *NIC) txRingLen(q int) uint32 {
	l := n.regs[TxQOff(q, RegTDLEN)] / DescSize
	if l == 0 {
		return 1
	}
	return l
}

func (n *NIC) rxRingLen(q int) uint32 {
	l := n.regs[RxQOff(q, RegRDLEN)] / DescSize
	if l == 0 {
		return 1
	}
	return l
}

func (n *NIC) txBase(q int) mem.Addr {
	return mem.Addr(uint64(n.regs[TxQOff(q, RegTDBAH)])<<32 | uint64(n.regs[TxQOff(q, RegTDBAL)]))
}

func (n *NIC) rxBase(q int) mem.Addr {
	return mem.Addr(uint64(n.regs[RxQOff(q, RegRDBAH)])<<32 | uint64(n.regs[RxQOff(q, RegRDBAL)]))
}

// --- Interrupts -----------------------------------------------------------

// itrInterval returns the minimum gap between interrupts (ITR register is in
// 256 ns units, as on hardware).
func (n *NIC) itrInterval() sim.Duration {
	return sim.Duration(n.regs[RegITR]) * 256
}

// assertCause latches an interrupt cause and raises an interrupt subject to
// masking and throttling.
func (n *NIC) assertCause(bits uint32) {
	n.regs[RegICR] |= bits
	n.maybeInterrupt()
}

func (n *NIC) maybeInterrupt() {
	if n.regs[RegICR]&n.regs[RegIMS] == 0 {
		return
	}
	now := n.loop.Now()
	gap := n.itrInterval()
	if gap > 0 && now-n.lastIntAt < gap {
		if !n.intPending {
			n.intPending = true
			n.loop.At(n.lastIntAt+gap, n.itrFn)
		}
		return
	}
	n.lastIntAt = now
	if n.RaiseMSI() {
		n.InterruptsRaised++
	} else {
		n.InterruptsSuppressedBy++
	}
}

// --- TX engine ------------------------------------------------------------

func (n *NIC) kickTx(q int) {
	if n.txActive[q] || n.regs[RegTCTL]&TctlEN == 0 {
		return
	}
	if n.regs[TxQOff(q, RegTDH)] == n.regs[TxQOff(q, RegTDT)] {
		return
	}
	n.txActive[q] = true
	start := n.txBusyUntil[q]
	if now := n.loop.Now(); start < now {
		start = now
	}
	n.loop.At(start, n.txStepFn[q])
}

// txStep processes one TX descriptor on queue q, then reschedules itself
// after the engine's per-packet time. Queues step independently: engine time
// serialises within a queue only. All DMA carries stream q+1, so with
// per-queue sub-domains attached a descriptor naming a sibling queue's
// buffer faults at the walk.
func (n *NIC) txStep(q int) {
	n.txActive[q] = false
	head := n.regs[TxQOff(q, RegTDH)]
	if head == n.regs[TxQOff(q, RegTDT)] || n.regs[RegTCTL]&TctlEN == 0 {
		return
	}
	descAddr := n.txBase(q) + mem.Addr(head*DescSize)
	engine := n.params.TxPerPacket

	desc := n.txDesc[:]
	err := n.DMAReadIntoQ(q+1, descAddr, desc)
	engine += sim.DMA(DescSize)
	if err != nil {
		n.DMAFaults++
		n.advanceTxHead(q, engine)
		return
	}
	bufAddr := mem.Addr(le64(desc[0:8]))
	length := int(le16(desc[8:10]))
	cmd := desc[11]

	if length > 0 && length <= ethlink.MaxFrame {
		payload := n.txFrame[:length]
		err := n.DMAReadIntoQ(q+1, bufAddr, payload)
		engine += sim.DMA(length)
		if err != nil {
			n.DMAFaults++
		} else if n.linkUp() {
			if n.link.Send(n.side, payload) == nil {
				n.TxPackets++
				n.TxBytes += uint64(length)
			}
		}
	}

	// Status writeback if requested.
	if cmd&TxCmdRS != 0 {
		desc[12] |= TxStaDD
		if err := n.DMAWriteQ(q+1, descAddr, desc); err != nil {
			n.DMAFaults++
		}
		engine += sim.DMA(DescSize)
	}
	n.assertCause(IntTXDW)
	n.advanceTxHead(q, engine)
}

func (n *NIC) advanceTxHead(q int, engine sim.Duration) {
	hdOff, tlOff := TxQOff(q, RegTDH), TxQOff(q, RegTDT)
	n.regs[hdOff] = (n.regs[hdOff] + 1) % n.txRingLen(q)
	now := n.loop.Now()
	if n.txBusyUntil[q] < now {
		n.txBusyUntil[q] = now
	}
	n.txBusyUntil[q] += engine
	if n.regs[hdOff] != n.regs[tlOff] {
		n.txActive[q] = true
		n.loop.At(n.txBusyUntil[q], n.txStepFn[q])
	}
}

// --- RX path --------------------------------------------------------------

// RSSHash is the flow hash the receive steering logic computes over a
// frame's transport ports (a stand-in for the Toeplitz hash with the default
// key). Exported so drivers, harnesses and attack scenarios can predict
// which ring a flow lands on.
func RSSHash(sport, dport uint16) uint32 {
	return uint32(sport)*31 + uint32(dport)
}

// steerQueue picks the RX ring for a received frame: hash the transport
// ports, index the redirection table, clamp to the active queue count.
// Non-IPv4 and short frames land on queue 0, as hardware delivers unhashable
// traffic to the default ring.
func (n *NIC) steerQueue(frame []byte) int {
	nq := n.rxQueues()
	if nq == 1 {
		return 0
	}
	const ethHdr = 14
	if len(frame) < ethHdr+20 || frame[12] != 0x08 || frame[13] != 0x00 {
		return 0
	}
	ihl := int(frame[ethHdr]&0x0F) * 4
	proto := frame[ethHdr+9]
	l4 := ethHdr + ihl
	if (proto != 6 && proto != 17) || l4 < ethHdr+20 || len(frame) < l4+4 {
		return 0
	}
	sport := uint16(frame[l4])<<8 | uint16(frame[l4+1])
	dport := uint16(frame[l4+2])<<8 | uint16(frame[l4+3])
	idx := RSSHash(sport, dport) % RetaEntries
	// The stored entry is already masked to retaEntryMask; the modulo
	// keeps it inside the *active* queue count even if the driver enabled
	// fewer queues than the mask allows.
	return int(n.regs[RegRETA+uint64(4*idx)]) % nq
}

// LinkDeliver implements ethlink.Endpoint: a frame arrived from the wire and
// is steered to an RX ring by the RSS hash. The frame is copied into the
// ring's FIFO.
func (n *NIC) LinkDeliver(frame []byte) {
	if n.regs[RegRCTL]&RctlEN == 0 || !n.linkUp() {
		return
	}
	q := n.steerQueue(frame)
	// Hardware FIFO: bounded per ring; beyond it the receiver overruns.
	if n.rxQueue[q].Len() >= 256 {
		n.RxDropsNoDesc++
		n.assertCause(IntRXO)
		return
	}
	n.rxQueue[q].Push(frame)
	n.kickRx(q)
}

func (n *NIC) kickRx(q int) {
	if n.rxActive[q] || n.rxQueue[q].Len() == 0 {
		return
	}
	n.rxActive[q] = true
	start := n.rxBusyUntil[q]
	if now := n.loop.Now(); start < now {
		start = now
	}
	n.loop.At(start, n.rxStepFn[q])
}

// rxStep processes one received frame on ring q, then reschedules itself
// after the engine's per-packet time. Rings step independently: engine time
// serialises within a ring only. All DMA carries stream q+1 (the receive
// mirror of txStep's tagging).
func (n *NIC) rxStep(q int) {
	n.rxActive[q] = false
	if n.rxQueue[q].Len() == 0 {
		return
	}
	// Hardware owns descriptors in [RDH, RDT); RDH == RDT means software
	// has not replenished the ring.
	head := n.regs[RxQOff(q, RegRDH)]
	if head == n.regs[RxQOff(q, RegRDT)] {
		// No free descriptors: drop.
		n.RxDropsNoDesc++
		n.rxQueue[q].Pop()
		n.assertCause(IntRXO)
		n.kickRx(q)
		return
	}
	n.rxFrame = append(n.rxFrame[:0], n.rxQueue[q].Peek()...)
	frame := n.rxFrame
	n.rxQueue[q].Pop()

	engine := n.params.RxPerPacket
	descAddr := n.rxBase(q) + mem.Addr(head*DescSize)
	desc := n.rxDesc[:]
	err := n.DMAReadIntoQ(q+1, descAddr, desc)
	engine += sim.DMA(DescSize)
	if err != nil {
		n.DMAFaults++
		n.finishRx(q, engine)
		return
	}
	bufAddr := mem.Addr(le64(desc[0:8]))
	if err := n.DMAWriteQ(q+1, bufAddr, frame); err != nil {
		n.DMAFaults++
		n.finishRx(q, engine)
		return
	}
	engine += sim.DMA(len(frame))
	n.tr.Mark(trace.ClassNetRx, q, uint64(bufAddr))
	n.tr.Event(trace.ClassNetRx, q, uint64(bufAddr), trace.HopDevComplete)

	// Write back length + DD|EOP status.
	putLE16(desc[8:10], uint16(len(frame)))
	desc[12] = RxStaDD | RxStaEOP
	if err := n.DMAWriteQ(q+1, descAddr, desc); err != nil {
		n.DMAFaults++
		n.finishRx(q, engine)
		return
	}
	engine += sim.DMA(DescSize)

	n.regs[RxQOff(q, RegRDH)] = (head + 1) % n.rxRingLen(q)
	n.RxPackets++
	n.RxBytes += uint64(len(frame))
	n.assertCause(IntRXT0)
	n.finishRx(q, engine)
}

func (n *NIC) finishRx(q int, engine sim.Duration) {
	now := n.loop.Now()
	if n.rxBusyUntil[q] < now {
		n.rxBusyUntil[q] = now
	}
	n.rxBusyUntil[q] += engine
	if n.rxQueue[q].Len() > 0 {
		n.rxActive[q] = true
		n.loop.At(n.rxBusyUntil[q], n.rxStepFn[q])
	}
}

// --- little-endian helpers -------------------------------------------------

func le16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }

func le64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func putLE16(b []byte, v uint16) { b[0] = byte(v); b[1] = byte(v >> 8) }
