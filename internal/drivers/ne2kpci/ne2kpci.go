// Package ne2kpci is the driver for the NE2000-compatible card — the
// paper's legacy-IO example (§4). All device access is programmed IO through
// the IO permission bitmap; the device never masters the bus, so its SUD
// IOMMU domain stays empty. Same code runs in-kernel and under SUD.
package ne2kpci

import (
	"fmt"

	"sud/internal/devices/ne2k"
	"sud/internal/drivers/api"
)

// Ring layout: transmit buffer in the first 6 pages of SRAM, receive ring in
// the rest.
const (
	txPage   = ne2k.SRAMBase / ne2k.PageSize // 0x40
	rxStart  = txPage + 6
	rxStop   = (ne2k.SRAMBase + ne2k.SRAMSize) / ne2k.PageSize // 0x80
	maxFrame = 1514
)

// Driver is the module object.
type Driver struct{}

// New returns the driver module.
func New() api.Driver { return Driver{} }

// Name implements api.Driver.
func (Driver) Name() string { return "ne2k-pci" }

// Match implements api.Driver (RTL8029).
func (Driver) Match(vendor, device uint16) bool {
	return vendor == 0x10EC && device == 0x8029
}

// Probe implements api.Driver.
func (Driver) Probe(env api.Env) (api.Instance, error) {
	n := &card{env: env}
	if err := env.EnableDevice(); err != nil {
		return nil, err
	}
	io, err := env.RequestRegion(0)
	if err != nil {
		return nil, err
	}
	n.io = io
	io.Out8(ne2k.PortReset, 0)
	// Read the MAC from the PROM (bytes doubled) via remote DMA.
	n.remoteSetup(0, 12)
	io.Out8(ne2k.PortCmd, ne2k.CmdStart|ne2k.CmdRRead)
	for i := 0; i < 6; i++ {
		n.mac[i] = io.In8(ne2k.PortData)
		_ = io.In8(ne2k.PortData) // doubled byte
	}
	nk, err := env.RegisterNetDev("eth0", n.mac, n)
	if err != nil {
		return nil, err
	}
	n.net = nk
	env.Logf("ne2k-pci: probed, MAC %02x:%02x:%02x:%02x:%02x:%02x",
		n.mac[0], n.mac[1], n.mac[2], n.mac[3], n.mac[4], n.mac[5])
	return n, nil
}

type card struct {
	env api.Env
	io  api.PortIO
	net api.NetKernel
	mac [6]byte

	next   uint8 // next ring page to read (BNRY trails it by one)
	opened bool

	// txBusy: a transmit is in flight (the card has one TX buffer).
	// StartXmit backpressures until the PTX interrupt completes it —
	// the driver-side half of the device's TXP busy-time model.
	txBusy bool

	// Counters.
	TxPkts, RxPkts uint64
}

var _ api.NetDevice = (*card)(nil)
var _ api.Instance = (*card)(nil)

// Remove implements api.Instance.
func (n *card) Remove() {
	if n.opened {
		_ = n.Stop()
	}
}

func (n *card) remoteSetup(addr, count uint16) {
	n.io.Out8(ne2k.PortRSAR0, uint8(addr))
	n.io.Out8(ne2k.PortRSAR1, uint8(addr>>8))
	n.io.Out8(ne2k.PortRBCR0, uint8(count))
	n.io.Out8(ne2k.PortRBCR1, uint8(count>>8))
}

// Open implements ndo_open.
func (n *card) Open() error {
	if n.opened {
		return nil
	}
	if err := n.env.RequestIRQ(n.irq); err != nil {
		return err
	}
	io := n.io
	io.Out8(ne2k.PortPSTART, rxStart)
	io.Out8(ne2k.PortPSTOP, rxStop)
	io.Out8(ne2k.PortBNRY, rxStart)
	// CURR lives in register page 1; BNRY trails the read pointer by one
	// page, NE2000 convention.
	io.Out8(ne2k.PortCmd, ne2k.CmdPage1|ne2k.CmdStart)
	io.Out8(ne2k.PortISR, rxStart+1) // CURR
	io.Out8(ne2k.PortCmd, ne2k.CmdStart)
	n.next = rxStart + 1
	n.opened = true
	n.net.CarrierOn()
	return nil
}

// Stop implements ndo_stop.
func (n *card) Stop() error {
	if !n.opened {
		return nil
	}
	n.opened = false
	n.txBusy = false
	n.io.Out8(ne2k.PortCmd, ne2k.CmdStop)
	n.net.CarrierOff()
	return n.env.FreeIRQ()
}

// StartXmit implements ndo_start_xmit: PIO-copy the frame into the TX pages
// and trigger transmission. The card has a single transmit buffer, so a
// frame offered while the transmitter is busy backpressures the stack until
// the PTX interrupt — real ne2k drivers stop the queue the same way.
func (n *card) StartXmit(frame []byte) error {
	if !n.opened {
		return fmt.Errorf("ne2k-pci: closed")
	}
	if len(frame) > maxFrame {
		return fmt.Errorf("ne2k-pci: frame too large")
	}
	if n.txBusy {
		return api.ErrTxBusy
	}
	io := n.io
	n.remoteSetup(txPage*ne2k.PageSize, uint16(len(frame)))
	io.Out8(ne2k.PortCmd, ne2k.CmdStart|ne2k.CmdRWrite)
	for i := 0; i+1 < len(frame); i += 2 {
		io.Out16(ne2k.PortData, uint16(frame[i])|uint16(frame[i+1])<<8)
	}
	if len(frame)%2 == 1 {
		io.Out8(ne2k.PortData, frame[len(frame)-1])
	}
	io.Out8(ne2k.PortTPSR, txPage)
	io.Out8(ne2k.PortTBCR0, uint8(len(frame)))
	io.Out8(ne2k.PortTBCR1, uint8(len(frame)>>8))
	io.Out8(ne2k.PortCmd, ne2k.CmdStart|ne2k.CmdTXP)
	n.txBusy = true
	n.TxPkts++
	return nil
}

// DoIoctl implements ndo_do_ioctl.
func (n *card) DoIoctl(cmd uint32, arg []byte) ([]byte, error) {
	switch cmd {
	case api.IoctlGetMIIStatus:
		var up byte
		if n.opened {
			up = 1
		}
		return []byte{up}, nil
	default:
		return nil, fmt.Errorf("ne2k-pci: unsupported ioctl %#x", cmd)
	}
}

func (n *card) irq() {
	if !n.opened {
		return
	}
	isr := n.io.In8(ne2k.PortISR)
	if isr&ne2k.IsrPRX != 0 {
		n.pollRing()
	}
	if isr&ne2k.IsrPTX != 0 && n.txBusy {
		// Transmit complete: the single TX buffer is free again.
		n.txBusy = false
		n.net.WakeQueue(0)
	}
	n.io.Out8(ne2k.PortISR, isr) // acknowledge causes
	n.env.IRQAck()
}

// pollRing drains received packets from the SRAM ring via remote DMA.
func (n *card) pollRing() {
	io := n.io
	for i := 0; i < 64; i++ { // bounded work per interrupt
		// CURR (page 1) tells where hardware will write next.
		io.Out8(ne2k.PortCmd, ne2k.CmdPage1|ne2k.CmdStart)
		curr := io.In8(ne2k.PortISR)
		io.Out8(ne2k.PortCmd, ne2k.CmdStart)
		if n.next == curr {
			return
		}
		// Read the 4-byte ring header.
		addr := uint16(n.next) * ne2k.PageSize
		n.remoteSetup(addr, 4)
		io.Out8(ne2k.PortCmd, ne2k.CmdStart|ne2k.CmdRRead)
		_ = io.In8(ne2k.PortData) // status
		next := io.In8(ne2k.PortData)
		total := int(io.In8(ne2k.PortData)) | int(io.In8(ne2k.PortData))<<8
		length := total - 4
		if length <= 0 || length > maxFrame || next < rxStart || next >= rxStop {
			// Corrupt ring: resynchronise.
			n.next = curr
			io.Out8(ne2k.PortBNRY, bnryFor(n.next))
			return
		}
		// Read the frame (it may wrap the ring; the device's remote
		// DMA window is linear, so read in two chunks if needed).
		frame := make([]byte, length)
		n.readWrapped(addr+4, frame)
		n.RxPkts++
		n.net.NetifRx(frame, 0)
		n.next = next
		io.Out8(ne2k.PortBNRY, bnryFor(n.next))
	}
}

// bnryFor returns the boundary register value trailing the read pointer.
func bnryFor(next uint8) uint8 {
	if next == rxStart {
		return rxStop - 1
	}
	return next - 1
}

// readWrapped reads length bytes from the RX ring starting at addr,
// wrapping at PSTOP.
func (n *card) readWrapped(addr uint16, out []byte) {
	io := n.io
	ringEnd := uint16(rxStop) * ne2k.PageSize
	ringStart := uint16(rxStart) * ne2k.PageSize
	pos := 0
	for pos < len(out) {
		if addr >= ringEnd {
			addr = ringStart + (addr - ringEnd)
		}
		chunk := len(out) - pos
		if int(ringEnd-addr) < chunk {
			chunk = int(ringEnd - addr)
		}
		n.remoteSetup(addr, uint16(chunk))
		io.Out8(ne2k.PortCmd, ne2k.CmdStart|ne2k.CmdRRead)
		for i := 0; i+1 < chunk; i += 2 {
			v := io.In16(ne2k.PortData)
			out[pos+i] = byte(v)
			out[pos+i+1] = byte(v >> 8)
		}
		if chunk%2 == 1 {
			out[pos+chunk-1] = io.In8(ne2k.PortData)
		}
		pos += chunk
		addr += uint16(chunk)
	}
}
