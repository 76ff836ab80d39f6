// Package ne2k models an NE2000-compatible PCI Ethernet card (RTL8029-ish):
// a legacy programmed-IO device with on-board packet SRAM accessed through a
// remote-DMA data port — no bus mastering at all. It is the paper's ne2k-pci
// example (§4): under SUD it exercises the IO permission bitmap path
// (§3.2.1) and demonstrates a driver whose device needs *no* IOMMU mappings.
package ne2k

import (
	"sud/internal/ethlink"
	"sud/internal/fifo"
	"sud/internal/pci"
	"sud/internal/sim"
)

// IO port offsets (relative to the IO BAR).
const (
	PortCmd    = 0x00
	PortPSTART = 0x01 // page 0
	PortPSTOP  = 0x02
	PortBNRY   = 0x03
	PortTPSR   = 0x04
	PortTBCR0  = 0x05
	PortTBCR1  = 0x06
	PortISR    = 0x07 // page 0 (page 1: CURR)
	PortRSAR0  = 0x08
	PortRSAR1  = 0x09
	PortRBCR0  = 0x0A
	PortRBCR1  = 0x0B
	PortData   = 0x10
	PortReset  = 0x1F

	// IOBARSize is the size of the IO BAR.
	IOBARSize = 0x20
)

// CMD register bits.
const (
	CmdStop   = 1 << 0
	CmdStart  = 1 << 1
	CmdTXP    = 1 << 2
	CmdRRead  = 1 << 3 // remote DMA read
	CmdRWrite = 1 << 4 // remote DMA write
	CmdPage1  = 1 << 6 // register bank select
)

// ISR bits.
const (
	IsrPRX = 1 << 0 // packet received
	IsrPTX = 1 << 1 // packet transmitted
	IsrOVW = 1 << 4 // ring overwrite
)

// SRAM geometry: 16 KiB of on-board packet memory at device addresses
// 0x4000–0x8000, in 256-byte pages.
const (
	SRAMBase = 0x4000
	SRAMSize = 16 * 1024
	PageSize = 256
)

// Transmit timing: the NE2000 is a 10 Mbit/s card, so TXP keeps the
// transmitter busy for the frame's wire time (preamble + frame + inter-frame
// gap at 0.8 µs/byte) on top of a fixed setup latency (local-DMA fetch of
// the frame from SRAM, deferral). A second TXP issued while the transmitter
// is busy serialises behind it in time — the busy-time model that replaces
// the old flat 50 µs latency, which let transmits overlap and forced the
// multi-flow harness to pace its ne2k flow artificially.
const (
	// TxSetup is the fixed transmit-start latency.
	TxSetup = 20 * sim.Microsecond
	// TxPerByte is the 10 Mbit/s wire time per byte.
	TxPerByte = 800 * sim.Nanosecond
	// txWireOverhead is preamble (8) + FCS (4) + inter-frame gap (12).
	txWireOverhead = 24
)

// TxTime returns how long the transmitter stays busy for an n-byte frame.
func TxTime(n int) sim.Duration {
	if n < 60 {
		n = 60 // minimum frame padding on the wire
	}
	return TxSetup + sim.Duration(n+txWireOverhead)*TxPerByte
}

// Card is the NE2000 device.
type Card struct {
	pci.FuncBase
	loop *sim.Loop

	link *ethlink.Link
	side int
	mac  [6]byte

	sram [SRAMSize]byte
	prom [32]byte

	// Register state.
	page1         bool
	isr           uint8
	pstart, pstop uint8
	bnry, curr    uint8
	tpsr          uint8
	tbcr          uint16
	rsar          uint16
	rbcr          uint16
	started       bool

	// txBusyUntil serialises transmits in time (TXP busy model).
	txBusyUntil sim.Time
	// txFrames holds the frames on their way out, oldest first: each
	// leaves when its wire time ends, so they finish in the order they
	// were queued. txDoneFn is txDone, bound once.
	txFrames fifo.Bytes
	txDoneFn func()

	// Counters.
	TxPackets, RxPackets uint64
	RxDrops              uint64
}

// New creates the card with the MAC burned into its PROM.
func New(loop *sim.Loop, bdf pci.BDF, ioBase uint64, macAddr [6]byte) *Card {
	c := &Card{loop: loop, mac: macAddr}
	c.txDoneFn = c.txDone
	cfg := pci.NewConfigSpace(0x10EC, 0x8029, 0x02)
	cfg.SetBAR(0, ioBase, IOBARSize, true)
	cfg.AddMSICapability() // the PCI variant SUD requires (§3.2.2: no legacy INTx)
	c.InitFunc(bdf, cfg)
	// PROM: MAC bytes doubled, NE2000 style.
	for i, b := range macAddr {
		c.prom[2*i] = b
		c.prom[2*i+1] = b
	}
	return c
}

// AttachLink connects the card to the wire.
func (c *Card) AttachLink(link *ethlink.Link, side int) {
	c.link = link
	c.side = side
}

// MAC returns the burned-in address.
func (c *Card) MAC() [6]byte { return c.mac }

// MMIO: the NE2000 has no memory BAR.
func (c *Card) MMIORead(bar int, off uint64, size int) uint64     { return ^uint64(0) }
func (c *Card) MMIOWrite(bar int, off uint64, size int, v uint64) {}

// IORead implements pci.Device.
func (c *Card) IORead(bar int, off uint64, size int) uint32 {
	switch off {
	case PortCmd:
		var v uint32
		if c.started {
			v |= CmdStart
		}
		if c.page1 {
			v |= CmdPage1
		}
		return v
	case PortISR:
		if c.page1 {
			return uint32(c.curr)
		}
		return uint32(c.isr)
	case PortBNRY:
		return uint32(c.bnry)
	case PortData:
		var v uint32
		for i := 0; i < size; i++ {
			v |= uint32(c.remoteRead()) << (8 * i)
		}
		return v
	default:
		return 0
	}
}

// IOWrite implements pci.Device.
func (c *Card) IOWrite(bar int, off uint64, size int, v uint32) {
	b := uint8(v)
	switch off {
	case PortCmd:
		c.page1 = v&CmdPage1 != 0
		if v&CmdStop != 0 {
			c.started = false
		}
		if v&CmdStart != 0 {
			c.started = true
		}
		if v&CmdTXP != 0 {
			c.transmit()
		}
	case PortPSTART:
		c.pstart = b
	case PortPSTOP:
		c.pstop = b
	case PortBNRY:
		c.bnry = b
	case PortTPSR:
		c.tpsr = b
	case PortTBCR0:
		c.tbcr = c.tbcr&0xFF00 | uint16(b)
	case PortTBCR1:
		c.tbcr = c.tbcr&0x00FF | uint16(b)<<8
	case PortISR:
		if c.page1 {
			c.curr = b
		} else {
			c.isr &^= b // write-one-to-clear
		}
	case PortRSAR0:
		c.rsar = c.rsar&0xFF00 | uint16(b)
	case PortRSAR1:
		c.rsar = c.rsar&0x00FF | uint16(b)<<8
	case PortRBCR0:
		c.rbcr = c.rbcr&0xFF00 | uint16(b)
	case PortRBCR1:
		c.rbcr = c.rbcr&0x00FF | uint16(b)<<8
	case PortData:
		for i := 0; i < size; i++ {
			c.remoteWrite(uint8(v >> (8 * i)))
		}
	case PortReset:
		c.reset()
	}
}

func (c *Card) reset() {
	c.started = false
	c.isr = 0
	c.page1 = false
	c.rsar, c.rbcr = 0, 0
}

// remoteRead returns the next byte of the remote-DMA window: the PROM below
// SRAMBase, packet SRAM above it.
func (c *Card) remoteRead() uint8 {
	if c.rbcr == 0 {
		return 0xFF
	}
	var b uint8
	if c.rsar < SRAMBase {
		b = c.prom[int(c.rsar)%len(c.prom)]
	} else if int(c.rsar)-SRAMBase < SRAMSize {
		b = c.sram[int(c.rsar)-SRAMBase]
	}
	c.rsar++
	c.rbcr--
	return b
}

func (c *Card) remoteWrite(b uint8) {
	if c.rbcr == 0 {
		return
	}
	if c.rsar >= SRAMBase && int(c.rsar)-SRAMBase < SRAMSize {
		c.sram[int(c.rsar)-SRAMBase] = b
	}
	c.rsar++
	c.rbcr--
}

// transmit sends tbcr bytes starting at page tpsr. The transmitter is busy
// for the frame's wire time: a TXP issued while a previous transmit is in
// flight queues behind it, so back-to-back transmits serialise at the
// card's 10 Mbit/s rate and PTX completions pace the driver honestly.
func (c *Card) transmit() {
	if !c.started || c.link == nil {
		return
	}
	start := int(c.tpsr)*PageSize - SRAMBase
	n := int(c.tbcr)
	if start < 0 || n <= 0 || start+n > SRAMSize || n > ethlink.MaxFrame {
		c.isr |= IsrPTX
		c.raise()
		return
	}
	c.txFrames.Push(c.sram[start : start+n])
	begin := c.txBusyUntil
	if now := c.loop.Now(); begin < now {
		begin = now
	}
	c.txBusyUntil = begin + TxTime(n)
	c.loop.At(c.txBusyUntil, c.txDoneFn)
}

// txDone puts the oldest queued frame on the wire as its wire time ends.
func (c *Card) txDone() {
	if c.link.Send(c.side, c.txFrames.Peek()) == nil {
		c.TxPackets++
	}
	c.txFrames.Pop()
	c.isr |= IsrPTX
	c.raise()
}

// LinkDeliver implements ethlink.Endpoint: store the frame into the receive
// ring with the 4-byte NE2000 header and advance CURR.
func (c *Card) LinkDeliver(frame []byte) {
	if !c.started {
		return
	}
	pages := (len(frame) + 4 + PageSize - 1) / PageSize
	next := c.curr + uint8(pages)
	if next >= c.pstop {
		next = c.pstart + (next - c.pstop)
	}
	// Overrun when the write would pass BNRY.
	if c.wouldOverrun(pages) {
		c.RxDrops++
		c.isr |= IsrOVW
		c.raise()
		return
	}
	total := len(frame) + 4
	hdr := []byte{0x01, next, byte(total), byte(total >> 8)}
	c.writeRing(int(c.curr)*PageSize-SRAMBase, append(hdr, frame...))
	c.curr = next
	c.RxPackets++
	c.isr |= IsrPRX
	c.raise()
}

func (c *Card) wouldOverrun(pages int) bool {
	ringPages := int(c.pstop - c.pstart)
	if ringPages <= 0 {
		return true
	}
	used := (int(c.curr) - int(c.bnry) + ringPages) % ringPages
	return used+pages >= ringPages
}

// writeRing copies data into the SRAM ring with wraparound.
func (c *Card) writeRing(off int, data []byte) {
	ringStart := int(c.pstart)*PageSize - SRAMBase
	ringEnd := int(c.pstop)*PageSize - SRAMBase
	for i, b := range data {
		pos := off + i
		if pos >= ringEnd {
			pos = ringStart + (pos - ringEnd)
		}
		if pos >= 0 && pos < SRAMSize {
			c.sram[pos] = b
		}
	}
}

func (c *Card) raise() { c.RaiseMSI() }
