// Package wifi models an Intel iwlagn-class 802.11 adapter and the airspace
// it operates in: access points that can be scanned, associated with, and
// exchanged data frames with. The driver interacts with it exactly like real
// silicon — MMIO command registers, DMA'd scan results, descriptor-ring data
// frames, MSI interrupts — so SUD's confinement story (§4: the iwlagn5000
// ran unmodified under SUD) is exercised end to end.
package wifi

import (
	"sud/internal/ethlink"
	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/sim"
)

// Register offsets (BAR0).
const (
	RegCmd       = 0x00 // write a CmdX value to start an operation
	RegIntCause  = 0x04 // read-to-clear interrupt causes
	RegIntMask   = 0x08 // 1 bits enable causes
	RegScanBufLo = 0x10 // DMA target for scan results
	RegScanBufHi = 0x14
	RegScanCount = 0x18 // number of BSS entries written (read-only)
	RegAssocIdx  = 0x1C // index into the last scan's results
	RegTxBufLo   = 0x20 // single-slot TX: frame buffer address
	RegTxBufHi   = 0x24
	RegTxLen     = 0x28 // writing length triggers transmission
	RegRxBufLo   = 0x30 // RX area: 32 slots of 2 KiB
	RegRxBufHi   = 0x34
	RegRxCtl     = 0x38 // bit 0 enables RX
	RegRxHead    = 0x3C // device write index (read-only)
	RegRxAck     = 0x40 // driver read index (write to free slots)
	RegMACLo     = 0x48
	RegMACHi     = 0x4C

	// BARSize is BAR0's size.
	BARSize = 0x1000
)

// Commands for RegCmd.
const (
	CmdScan = iota + 1
	CmdAssoc
	CmdDisassoc
)

// Interrupt cause bits.
const (
	IntScanDone = 1 << 0
	IntAssocOK  = 1 << 1
	IntAssocErr = 1 << 2
	IntRx       = 1 << 3
	IntTxDone   = 1 << 4
	IntDisassoc = 1 << 5
)

// BSSEntrySize is the DMA'd scan-result record: ssid[32] bssid[6] pad[2]
// channel[2] signal-as-int8+128[1] pad[5].
const BSSEntrySize = 48

// RxSlots and RxSlotSize define the receive area geometry.
const (
	RxSlots    = 32
	RxSlotSize = 2048
)

// Timing of radio operations.
const (
	scanDwell  = 12 * sim.Millisecond // whole-scan duration
	assocDelay = 4 * sim.Millisecond
	txAirTime  = 60 * sim.Microsecond // ~54 Mb/s effective per frame slot
)

// AP is one access point in the airspace.
type AP struct {
	SSID    string
	BSSID   [6]byte
	Channel int
	Signal  int // dBm

	// Bridge, if set, receives every data frame an associated station
	// transmits; use Station.DeliverFromAP for the reverse direction.
	Bridge func(frame []byte)
}

// Air is the shared radio environment.
type Air struct {
	APs []*AP
}

// FindAP returns the AP broadcasting ssid.
func (a *Air) FindAP(ssid string) *AP {
	for _, ap := range a.APs {
		if ap.SSID == ssid {
			return ap
		}
	}
	return nil
}

// NIC is the 802.11 adapter.
type NIC struct {
	pci.FuncBase
	loop *sim.Loop
	air  *Air
	mac  [6]byte

	regs map[uint64]uint32

	lastScan []*AP
	assoc    *AP

	rxHead, rxAck uint32

	// Counters.
	TxFrames, RxFrames uint64
	RxDrops, DMAFaults uint64
	Scans              uint64
}

// New creates the adapter. Vendor/device match the iwlagn 5000 series.
func New(loop *sim.Loop, bdf pci.BDF, barBase uint64, macAddr [6]byte, air *Air) *NIC {
	n := &NIC{loop: loop, air: air, mac: macAddr, regs: make(map[uint64]uint32)}
	cfg := pci.NewConfigSpace(0x8086, 0x4232, 0x02)
	cfg.SetBAR(0, barBase, BARSize, false)
	cfg.AddMSICapability()
	cfg.OnMSIChange = func() {
		if !cfg.MSI().Masked {
			n.maybeInterrupt()
		}
	}
	n.InitFunc(bdf, cfg)
	return n
}

// MAC returns the adapter address.
func (n *NIC) MAC() [6]byte { return n.mac }

// Associated returns the currently joined AP (tests).
func (n *NIC) Associated() *AP { return n.assoc }

func (n *NIC) assertCause(bits uint32) {
	n.regs[RegIntCause] |= bits
	n.maybeInterrupt()
}

func (n *NIC) maybeInterrupt() {
	if n.regs[RegIntCause]&n.regs[RegIntMask] != 0 {
		n.RaiseMSI()
	}
}

// MMIORead implements pci.Device.
func (n *NIC) MMIORead(bar int, off uint64, size int) uint64 {
	switch off {
	case RegIntCause:
		v := n.regs[RegIntCause]
		n.regs[RegIntCause] = 0
		return uint64(v)
	case RegMACLo:
		return uint64(n.mac[0]) | uint64(n.mac[1])<<8 | uint64(n.mac[2])<<16 | uint64(n.mac[3])<<24
	case RegMACHi:
		return uint64(n.mac[4]) | uint64(n.mac[5])<<8
	case RegRxHead:
		return uint64(n.rxHead)
	default:
		return uint64(n.regs[off])
	}
}

// MMIOWrite implements pci.Device.
func (n *NIC) MMIOWrite(bar int, off uint64, size int, v uint64) {
	val := uint32(v)
	switch off {
	case RegCmd:
		n.command(val)
	case RegTxLen:
		n.regs[RegTxLen] = val
		n.transmit(int(val))
	case RegRxAck:
		n.rxAck = val % RxSlots
	default:
		n.regs[off] = val
	}
}

// IORead/IOWrite: no IO BAR.
func (n *NIC) IORead(bar int, off uint64, size int) uint32     { return 0xFFFFFFFF }
func (n *NIC) IOWrite(bar int, off uint64, size int, v uint32) {}

func (n *NIC) command(cmd uint32) {
	switch cmd {
	case CmdScan:
		n.Scans++
		n.loop.After(scanDwell, n.finishScan)
	case CmdAssoc:
		idx := int(n.regs[RegAssocIdx])
		n.loop.After(assocDelay, func() { n.finishAssoc(idx) })
	case CmdDisassoc:
		if n.assoc != nil {
			n.assoc = nil
			n.assertCause(IntDisassoc)
		}
	}
}

// finishScan DMA-writes one BSSEntry per AP into the scan buffer.
func (n *NIC) finishScan() {
	buf := mem.Addr(uint64(n.regs[RegScanBufHi])<<32 | uint64(n.regs[RegScanBufLo]))
	n.lastScan = append(n.lastScan[:0], n.air.APs...)
	count := 0
	for i, ap := range n.lastScan {
		var rec [BSSEntrySize]byte
		copy(rec[0:32], ap.SSID)
		copy(rec[32:38], ap.BSSID[:])
		rec[40] = byte(ap.Channel)
		rec[41] = byte(ap.Channel >> 8)
		rec[42] = byte(ap.Signal + 128)
		if err := n.DMAWrite(buf+mem.Addr(i*BSSEntrySize), rec[:]); err != nil {
			n.DMAFaults++
			break
		}
		count++
	}
	n.regs[RegScanCount] = uint32(count)
	n.assertCause(IntScanDone)
}

func (n *NIC) finishAssoc(idx int) {
	if idx < 0 || idx >= len(n.lastScan) {
		n.assertCause(IntAssocErr)
		return
	}
	n.assoc = n.lastScan[idx]
	n.assertCause(IntAssocOK)
}

// transmit DMA-reads the TX buffer and hands the frame to the AP bridge.
func (n *NIC) transmit(length int) {
	if n.assoc == nil || length <= 0 || length > ethlink.MaxFrame {
		n.assertCause(IntTxDone)
		return
	}
	buf := mem.Addr(uint64(n.regs[RegTxBufHi])<<32 | uint64(n.regs[RegTxBufLo]))
	frame := make([]byte, length)
	if err := n.DMAReadInto(buf, frame); err != nil {
		n.DMAFaults++
		n.assertCause(IntTxDone)
		return
	}
	ap := n.assoc
	n.loop.After(txAirTime, func() {
		n.TxFrames++
		if ap.Bridge != nil {
			ap.Bridge(frame)
		}
		n.assertCause(IntTxDone)
	})
}

// DeliverFromAP injects a downlink data frame (the AP side of the bridge).
func (n *NIC) DeliverFromAP(frame []byte) {
	if n.assoc == nil || n.regs[RegRxCtl]&1 == 0 {
		return
	}
	next := (n.rxHead + 1) % RxSlots
	if next == n.rxAck {
		n.RxDrops++
		return
	}
	base := mem.Addr(uint64(n.regs[RegRxBufHi])<<32 | uint64(n.regs[RegRxBufLo]))
	slot := base + mem.Addr(n.rxHead*RxSlotSize)
	var hdr [4]byte
	hdr[0] = byte(len(frame))
	hdr[1] = byte(len(frame) >> 8)
	if err := n.DMAWrite(slot, hdr[:]); err != nil {
		n.DMAFaults++
		return
	}
	if err := n.DMAWrite(slot+4, frame); err != nil {
		n.DMAFaults++
		return
	}
	n.rxHead = next
	n.RxFrames++
	n.assertCause(IntRx)
}
