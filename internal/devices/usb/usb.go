// Package usb models an EHCI-class USB host controller and USB devices (a
// HID keyboard and a bulk-storage disk). The controller executes transfer
// descriptors the driver places in DMA memory — so, as with the other device
// models, a malicious driver's bad buffer pointer becomes a real IOMMU
// fault. The paper ran EHCI/UHCI host controller drivers and USB devices
// under SUD with no class-specific proxy code (Figure 5: "USB host proxy
// driver — 0"); here the host driver exposes its functionality through the
// generic SUD ctl channel the same way.
package usb

import (
	"fmt"

	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/sim"
)

// Register offsets (BAR0).
const (
	RegUSBCmd   = 0x00 // bit0 RUN
	RegUSBSts   = 0x04 // read-to-clear: bit0 transfer complete, bit2 port change
	RegUSBIntr  = 0x08 // interrupt enables, same bits
	RegTDAddr   = 0x30 // bus address of the transfer descriptor
	RegDoorbell = 0x34 // write 1: execute the TD at TDAddr
	RegPortBase = 0x44 // PORTSC[i] at RegPortBase + 4*i

	// BARSize is BAR0's size.
	BARSize = 0x1000
)

// USBSTS bits.
const (
	StsXferDone   = 1 << 0
	StsPortChange = 1 << 2
)

// PORTSC bits.
const (
	PortConnected = 1 << 0
	PortEnabled   = 1 << 1
	PortReset     = 1 << 8
)

// NumPorts is the root hub size.
const NumPorts = 4

// Transfer directions in the TD.
const (
	DirOut = iota
	DirIn
	DirSetup
)

// TD status codes written back by the controller.
const (
	TDOK = iota
	TDStall
	TDNak
)

// TDSize is the transfer descriptor size: [0]=devAddr [1]=endpoint [2]=dir
// [3]=status [4:6]=buffer length [6:8]=actual length [8:16]=buffer address
// [16:24]=setup packet.
const TDSize = 32

// SetupPacket is a USB control-transfer SETUP stage.
type SetupPacket struct {
	RequestType uint8
	Request     uint8
	Value       uint16
	Index       uint16
	Length      uint16
}

// Marshal packs the setup packet in bus format.
func (s SetupPacket) Marshal() [8]byte {
	return [8]byte{
		s.RequestType, s.Request,
		byte(s.Value), byte(s.Value >> 8),
		byte(s.Index), byte(s.Index >> 8),
		byte(s.Length), byte(s.Length >> 8),
	}
}

// ParseSetup unpacks a setup packet.
func ParseSetup(b []byte) SetupPacket {
	return SetupPacket{
		RequestType: b[0], Request: b[1],
		Value:  uint16(b[2]) | uint16(b[3])<<8,
		Index:  uint16(b[4]) | uint16(b[5])<<8,
		Length: uint16(b[6]) | uint16(b[7])<<8,
	}
}

// Standard requests.
const (
	ReqGetDescriptor    = 6
	ReqSetAddress       = 5
	ReqSetConfiguration = 9
)

// Descriptor types.
const DescDevice = 1

// Device is a USB function attached to a port.
type Device interface {
	// Control executes a control transfer; for IN-direction requests the
	// returned bytes are the data stage.
	Control(setup SetupPacket, data []byte) ([]byte, error)
	// In polls an IN endpoint; nil data means NAK (nothing to send).
	In(ep int, maxLen int) ([]byte, error)
	// Out delivers data to an OUT endpoint.
	Out(ep int, data []byte) error
}

// HostController is the EHCI-lite controller.
type HostController struct {
	pci.FuncBase
	loop *sim.Loop

	regs  map[uint64]uint32
	ports [NumPorts]Device

	// address map: assigned USB addresses → device; address 0 is the
	// most recently reset port's device.
	byAddr map[uint8]Device
	dflt   Device

	// Counters.
	Transfers uint64
	TDFaults  uint64
}

// New creates the controller (ICH9 EHCI IDs).
func New(loop *sim.Loop, bdf pci.BDF, barBase uint64) *HostController {
	h := &HostController{loop: loop, regs: make(map[uint64]uint32), byAddr: make(map[uint8]Device)}
	cfg := pci.NewConfigSpace(0x8086, 0x293A, 0x0C)
	cfg.SetBAR(0, barBase, BARSize, false)
	cfg.AddMSICapability()
	h.InitFunc(bdf, cfg)
	return h
}

// AttachUSB plugs dev into root port p. (Named to avoid shadowing the PCI
// fabric Attach inherited from FuncBase.)
func (h *HostController) AttachUSB(p int, dev Device) error {
	if p < 0 || p >= NumPorts {
		return fmt.Errorf("usb: no port %d", p)
	}
	h.ports[p] = dev
	h.setSts(StsPortChange)
	return nil
}

func (h *HostController) setSts(bits uint32) {
	h.regs[RegUSBSts] |= bits
	if h.regs[RegUSBSts]&h.regs[RegUSBIntr] != 0 {
		h.RaiseMSI()
	}
}

// MMIORead implements pci.Device.
func (h *HostController) MMIORead(bar int, off uint64, size int) uint64 {
	if off == RegUSBSts {
		v := h.regs[RegUSBSts]
		h.regs[RegUSBSts] = 0
		return uint64(v)
	}
	if off >= RegPortBase && off < RegPortBase+4*NumPorts {
		p := int(off-RegPortBase) / 4
		var v uint32
		if h.ports[p] != nil {
			v |= PortConnected
		}
		v |= h.regs[off] & PortEnabled
		return uint64(v)
	}
	return uint64(h.regs[off])
}

// MMIOWrite implements pci.Device.
func (h *HostController) MMIOWrite(bar int, off uint64, size int, v uint64) {
	val := uint32(v)
	switch {
	case off == RegDoorbell:
		if val&1 != 0 {
			// Transfers complete within the current (micro)frame; the
			// HCD busy-waits on USBSTS for short transfers, so the
			// model executes synchronously and signals completion.
			h.execTD()
		}
	case off >= RegPortBase && off < RegPortBase+4*NumPorts:
		p := int(off-RegPortBase) / 4
		if val&PortReset != 0 && h.ports[p] != nil {
			// Port reset: the device answers at address 0.
			h.dflt = h.ports[p]
			h.regs[off] = PortEnabled
			return
		}
		h.regs[off] = val & PortEnabled
	default:
		h.regs[off] = val
	}
}

// IORead/IOWrite: no IO BAR.
func (h *HostController) IORead(bar int, off uint64, size int) uint32     { return 0xFFFFFFFF }
func (h *HostController) IOWrite(bar int, off uint64, size int, v uint32) {}

func (h *HostController) device(addr uint8) Device {
	if addr == 0 {
		return h.dflt
	}
	return h.byAddr[addr]
}

// execTD fetches and executes the transfer descriptor at TDAddr.
func (h *HostController) execTD() {
	if h.regs[RegUSBCmd]&1 == 0 {
		return
	}
	tdAddr := mem.Addr(h.regs[RegTDAddr])
	td := make([]byte, TDSize)
	if err := h.DMAReadInto(tdAddr, td); err != nil {
		h.TDFaults++
		return
	}
	h.Transfers++
	devAddr := td[0]
	ep := int(td[1])
	dir := int(td[2])
	length := int(td[4]) | int(td[5])<<8
	buf := mem.Addr(le64(td[8:16]))

	status, actual := h.transact(devAddr, ep, dir, length, buf, td[16:24])

	td[3] = byte(status)
	td[6] = byte(actual)
	td[7] = byte(actual >> 8)
	if err := h.DMAWrite(tdAddr, td); err != nil {
		h.TDFaults++
		return
	}
	h.setSts(StsXferDone)
}

func (h *HostController) transact(devAddr uint8, ep, dir, length int, buf mem.Addr, setup []byte) (status, actual int) {
	dev := h.device(devAddr)
	if dev == nil {
		return TDStall, 0
	}
	switch dir {
	case DirSetup:
		sp := ParseSetup(setup)
		// SET_ADDRESS is handled bus-side: the controller re-binds its
		// address map like real enumeration does.
		if sp.Request == ReqSetAddress && sp.RequestType == 0 {
			h.byAddr[uint8(sp.Value)] = dev
			if devAddr == 0 {
				h.dflt = nil
			}
			return TDOK, 0
		}
		var out []byte
		var data []byte
		if sp.RequestType&0x80 == 0 && length > 0 {
			data = make([]byte, length)
			if err := h.DMAReadInto(buf, data); err != nil {
				h.TDFaults++
				return TDStall, 0
			}
		}
		out, err := dev.Control(sp, data)
		if err != nil {
			return TDStall, 0
		}
		if sp.RequestType&0x80 != 0 && len(out) > 0 {
			if len(out) > length {
				out = out[:length]
			}
			if err := h.DMAWrite(buf, out); err != nil {
				h.TDFaults++
				return TDStall, 0
			}
			return TDOK, len(out)
		}
		return TDOK, 0
	case DirIn:
		data, err := dev.In(ep, length)
		if err != nil {
			return TDStall, 0
		}
		if data == nil {
			return TDNak, 0
		}
		if len(data) > length {
			data = data[:length]
		}
		if err := h.DMAWrite(buf, data); err != nil {
			h.TDFaults++
			return TDStall, 0
		}
		return TDOK, len(data)
	case DirOut:
		data := make([]byte, length)
		if err := h.DMAReadInto(buf, data); err != nil {
			h.TDFaults++
			return TDStall, 0
		}
		if err := dev.Out(ep, data); err != nil {
			return TDStall, 0
		}
		return TDOK, length
	}
	return TDStall, 0
}

func le64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}
