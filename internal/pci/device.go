package pci

import "sud/internal/mem"

// Device is a PCI function attached to the fabric. Device models in
// internal/devices implement this; the kernel and the SUD safe-access module
// talk to devices only through it.
type Device interface {
	// BDF returns the function's bus/device/function address.
	BDF() BDF

	// Config returns the function's configuration space.
	Config() *ConfigSpace

	// MMIORead/MMIOWrite access a memory BAR at the given byte offset.
	// size is 1, 2, 4 or 8. Device register side effects happen here.
	MMIORead(bar int, off uint64, size int) uint64
	MMIOWrite(bar int, off uint64, size int, v uint64)

	// IORead/IOWrite access an IO-space BAR (legacy devices such as
	// ne2k-pci). Devices without IO BARs return all-ones / ignore.
	IORead(bar int, off uint64, size int) uint32
	IOWrite(bar int, off uint64, size int, v uint32)

	// Attach gives the device its upstream port; called by the topology
	// when the device is plugged in.
	Attach(port Port)
}

// FuncBase provides the boilerplate half of Device: identity, config space
// and the upstream port, plus DMA and MSI helpers. Device models embed it.
type FuncBase struct {
	bdf  BDF
	cfg  *ConfigSpace
	port Port
	// msi holds RaiseMSI's message. One serves every message: whatever
	// completes the write (the MSI controller, DRAM, a peer's register)
	// consumes it before Upstream returns.
	msi [4]byte
}

// InitFunc initialises the embedded base.
func (f *FuncBase) InitFunc(bdf BDF, cfg *ConfigSpace) {
	f.bdf = bdf
	f.cfg = cfg
}

// BDF implements Device.
func (f *FuncBase) BDF() BDF { return f.bdf }

// Config implements Device.
func (f *FuncBase) Config() *ConfigSpace { return f.cfg }

// Attach implements Device.
func (f *FuncBase) Attach(port Port) { f.port = port }

// Attached reports whether the device has an upstream port.
func (f *FuncBase) Attached() bool { return f.port != nil }

// DMAReadInto issues an untagged memory read TLP for len(dst) bytes at bus
// address addr and lands the data in dst. It fails if bus mastering is
// disabled (the command register gates DMA on real hardware too).
func (f *FuncBase) DMAReadInto(addr mem.Addr, dst []byte) error {
	return f.DMAReadIntoQ(0, addr, dst)
}

// DMAReadIntoQ is DMAReadInto with the issuing hardware queue's stream tag
// stamped on the TLP (the trusted device silicon stamps it, like the
// requester BDF), so a per-queue IOMMU sub-domain can confine the access.
//
// dst is the device's own buffer — an engine buffer, a cache slot, media —
// and the fabric fills it in place: the read path allocates nothing. The
// caller owns dst before and after the call; nothing below retains it. On
// error dst is not valid data: it may hold a prefix of the read (the pages
// before the one that failed), so a caller that must not expose a torn
// read either reads into a private buffer or reads one page at a time.
func (f *FuncBase) DMAReadIntoQ(stream int, addr mem.Addr, dst []byte) error {
	if f.port == nil {
		return &RouteError{Reason: "device not attached"}
	}
	tlp := TLP{Type: MemRead, Requester: f.bdf, Stream: stream, Addr: addr, Dst: dst}
	if !f.cfg.BusMasterEnabled() {
		return &RouteError{TLP: tlp, Reason: "bus mastering disabled"}
	}
	return f.port.Upstream(tlp).Err
}

// DMAWrite issues an untagged memory write TLP.
func (f *FuncBase) DMAWrite(addr mem.Addr, data []byte) error {
	return f.DMAWriteQ(0, addr, data)
}

// DMAWriteQ is DMAWrite with the issuing hardware queue's stream tag.
func (f *FuncBase) DMAWriteQ(stream int, addr mem.Addr, data []byte) error {
	if f.port == nil {
		return &RouteError{Reason: "device not attached"}
	}
	if !f.cfg.BusMasterEnabled() {
		return &RouteError{
			TLP:    TLP{Type: MemWrite, Requester: f.bdf, Stream: stream, Addr: addr, Data: data},
			Reason: "bus mastering disabled",
		}
	}
	c := f.port.Upstream(TLP{Type: MemWrite, Requester: f.bdf, Stream: stream, Addr: addr, Data: data})
	return c.Err
}

// RaiseMSI signals the function's MSI, if enabled and unmasked: a memory
// write of the message data to the message address, travelling the same
// fabric path as any other DMA (§3.2.2). It reports whether a message was
// actually sent.
func (f *FuncBase) RaiseMSI() bool {
	msi := f.cfg.MSI()
	if !msi.Present || !msi.Enabled || msi.Masked || f.port == nil {
		return false
	}
	f.msi = [4]byte{byte(msi.Data), byte(msi.Data >> 8)}
	c := f.port.Upstream(TLP{
		Type:      MemWrite,
		Requester: f.bdf,
		Addr:      mem.Addr(msi.Address),
		Data:      f.msi[:],
	})
	return c.OK()
}
