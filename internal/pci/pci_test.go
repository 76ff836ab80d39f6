package pci

import (
	"testing"
	"testing/quick"

	"sud/internal/mem"
)

// fakeDev is a minimal Device with one 4 KiB memory BAR backed by a byte
// array, for routing tests.
type fakeDev struct {
	FuncBase
	regs [4096]byte
	io   [64]byte
}

func newFakeDev(bdf BDF, barBase uint64) *fakeDev {
	d := &fakeDev{}
	cfg := NewConfigSpace(0x8086, 0x10D3, 0x02)
	cfg.SetBAR(0, barBase, 4096, false)
	cfg.SetBAR(1, 0xC000, 64, true)
	cfg.AddMSICapability()
	cfg.Write(CfgCommand, 2, CmdMemSpace|CmdBusMaster|CmdIOSpace)
	d.InitFunc(bdf, cfg)
	return d
}

func (d *fakeDev) MMIORead(bar int, off uint64, size int) uint64 {
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(d.regs[(off+uint64(i))%4096])
	}
	return v
}

func (d *fakeDev) MMIOWrite(bar int, off uint64, size int, v uint64) {
	for i := 0; i < size; i++ {
		d.regs[(off+uint64(i))%4096] = byte(v >> (8 * i))
	}
}

func (d *fakeDev) IORead(bar int, off uint64, size int) uint32 {
	return uint32(d.io[off%64])
}

func (d *fakeDev) IOWrite(bar int, off uint64, size int, v uint32) {
	d.io[off%64] = byte(v)
}

// memHandler terminates upstream TLPs in a plain Memory (no IOMMU).
type memHandler struct {
	m      *mem.Memory
	seen   []TLP
	reject bool
}

func (h *memHandler) HandleUpstream(tlp TLP) Completion {
	h.seen = append(h.seen, tlp)
	if h.reject {
		return Completion{Err: &RouteError{TLP: tlp, Reason: "rejected"}}
	}
	switch tlp.Type {
	case MemWrite:
		if err := h.m.Write(tlp.Addr, tlp.Data); err != nil {
			return Completion{Err: err}
		}
		return Completion{}
	case MemRead:
		if err := h.m.Read(tlp.Addr, tlp.Dst); err != nil {
			return Completion{Err: err}
		}
		return Completion{}
	}
	return Completion{Err: &RouteError{TLP: tlp, Reason: "bad type"}}
}

func TestBDFString(t *testing.T) {
	b := MakeBDF(3, 0x1C, 2)
	if b.String() != "03:1c.2" {
		t.Fatalf("BDF string = %q", b.String())
	}
}

func TestConfigIDsReadOnly(t *testing.T) {
	c := NewConfigSpace(0x8086, 0x10D3, 0x02)
	c.Write(CfgVendorID, 4, 0x12345678)
	if c.VendorID() != 0x8086 || c.DeviceID() != 0x10D3 {
		t.Fatal("vendor/device ID writable")
	}
}

func TestConfigBARSizeProbe(t *testing.T) {
	c := NewConfigSpace(1, 2, 0)
	c.SetBAR(0, 0xFEB00000, 0x20000, false)
	c.Write(CfgBAR0, 4, 0xFFFFFFFF)
	got := c.Read(CfgBAR0, 4)
	if got != ^uint32(0x20000-1) {
		t.Fatalf("size probe = %#x, want %#x", got, ^uint32(0x20000-1))
	}
	// Restore the base.
	c.Write(CfgBAR0, 4, 0xFEB00000)
	base, info := c.BAR(0)
	if base != 0xFEB00000 || info.Size != 0x20000 || info.IO {
		t.Fatalf("BAR = %#x %+v", base, info)
	}
}

func TestConfigBARTypeBitsPreserved(t *testing.T) {
	c := NewConfigSpace(1, 2, 0)
	c.SetBAR(2, 0xC000, 64, true)
	c.Write(CfgBAR0+8, 4, 0xD007) // low bits must be forced back to IO type
	if got := c.Read(CfgBAR0+8, 4); got != 0xD005 {
		t.Fatalf("IO BAR raw = %#x, want 0xD005", got)
	}
}

func TestConfigUnimplementedBAR(t *testing.T) {
	c := NewConfigSpace(1, 2, 0)
	c.Write(CfgBAR0+20, 4, 0xFFFFFFFF)
	if got := c.Read(CfgBAR0+20, 4); got != 0 {
		t.Fatalf("unimplemented BAR reads %#x, want 0", got)
	}
}

func TestMSICapability(t *testing.T) {
	c := NewConfigSpace(1, 2, 0)
	off := c.AddMSICapability()
	if c.Read(CfgCapPtr, 1) != uint32(off) {
		t.Fatal("capability pointer not set")
	}
	msi := c.MSI()
	if !msi.Present || msi.Enabled || msi.Masked {
		t.Fatalf("fresh MSI state = %+v", msi)
	}
	// Program address/data and enable, as a driver would.
	c.Write(off+4, 4, 0xFEE00000)
	c.Write(off+8, 2, 0x41)
	c.Write(off+2, 2, MSICtlEnable)
	msi = c.MSI()
	if !msi.Enabled || msi.Address != 0xFEE00000 || msi.Data != 0x41 {
		t.Fatalf("programmed MSI state = %+v", msi)
	}
	var changed int
	c.OnMSIChange = func() { changed++ }
	c.SetMSIMasked(true)
	if !c.MSI().Masked || changed != 1 {
		t.Fatal("SetMSIMasked did not take or did not notify")
	}
	c.SetMSIMasked(false)
	if c.MSI().Masked {
		t.Fatal("unmask did not take")
	}
}

func TestMSIChangeHookOnDirectWrite(t *testing.T) {
	c := NewConfigSpace(1, 2, 0)
	off := c.AddMSICapability()
	var changed int
	c.OnMSIChange = func() { changed++ }
	c.Write(off+2, 2, MSICtlEnable)
	if changed != 1 {
		t.Fatalf("config write in MSI cap fired %d change hooks, want 1", changed)
	}
}

// buildFabric creates root—switch with two devices, returning everything.
func buildFabric(acs ACS) (*RootComplex, *Switch, *fakeDev, *fakeDev, *memHandler) {
	m := mem.New()
	m.AllocRange(0x100000, 16*mem.PageSize)
	h := &memHandler{m: m}
	sw := NewSwitch("sw0", acs)
	a := newFakeDev(MakeBDF(1, 0, 0), 0xFEB00000)
	b := newFakeDev(MakeBDF(1, 1, 0), 0xFEB10000)
	sw.AttachDevice(a)
	sw.AttachDevice(b)
	rc := NewRootComplex(sw, h)
	return rc, sw, a, b, h
}

func TestDMAThroughRoot(t *testing.T) {
	_, _, a, _, h := buildFabric(ACS{SourceValidation: true, P2PRedirect: true})
	if err := a.DMAWrite(0x100000, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if err := a.DMAReadInto(0x100000, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[3] != 4 {
		t.Fatalf("DMA round trip got % x", got)
	}
	if len(h.seen) != 2 {
		t.Fatalf("root saw %d TLPs, want 2", len(h.seen))
	}
}

func TestBusMasterGate(t *testing.T) {
	_, _, a, _, _ := buildFabric(ACS{})
	a.Config().Write(CfgCommand, 2, CmdMemSpace) // clear bus master
	if err := a.DMAWrite(0x100000, []byte{1}); err == nil {
		t.Fatal("DMA with bus mastering disabled succeeded")
	}
}

func TestP2PDirectWithoutACS(t *testing.T) {
	// Without P2P redirection, a DMA to a peer's BAR lands on the peer's
	// registers without ever reaching the root (the attack).
	_, _, a, b, h := buildFabric(ACS{})
	if err := a.DMAWrite(0xFEB10010, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	if b.regs[0x10] != 0xAA || b.regs[0x11] != 0xBB {
		t.Fatal("peer-to-peer write did not reach peer registers")
	}
	if len(h.seen) != 0 {
		t.Fatal("P2P TLP leaked to the root complex")
	}
}

func TestP2PRedirectedWithACS(t *testing.T) {
	// With ACS P2P redirection the TLP is forced upstream to the root,
	// where the IOMMU (here: the plain handler) decides.
	_, _, a, b, h := buildFabric(ACS{P2PRedirect: true})
	h.reject = true // stand-in for an IOMMU fault
	err := a.DMAWrite(0xFEB10010, []byte{0xAA})
	if err == nil {
		t.Fatal("redirected P2P write unexpectedly succeeded")
	}
	if b.regs[0x10] == 0xAA {
		t.Fatal("P2P write reached peer despite redirection")
	}
	if len(h.seen) != 1 {
		t.Fatalf("root saw %d TLPs, want 1", len(h.seen))
	}
}

func TestP2PLegacyBusCannotBeFiltered(t *testing.T) {
	// On a conventional PCI bus ACS settings are ineffective (§3.2.2:
	// "when multiple devices share the same physical PCI bus, there is
	// nothing that can prevent a device-to-device DMA attack").
	_, sw, a, b, _ := buildFabric(ACS{SourceValidation: true, P2PRedirect: true})
	sw.Legacy = true
	if err := a.DMAWrite(0xFEB10000, []byte{0x77}); err != nil {
		t.Fatal(err)
	}
	if b.regs[0] != 0x77 {
		t.Fatal("legacy-bus P2P write blocked, should be unstoppable")
	}
}

func TestACSSourceValidationDropsSpoof(t *testing.T) {
	_, sw, _, _, h := buildFabric(ACS{SourceValidation: true, P2PRedirect: true})
	// Craft a TLP with a spoofed requester ID and inject it via the
	// device's port (modelling a misdesigned/hostile device).
	spoofed := TLP{Type: MemWrite, Requester: MakeBDF(1, 1, 0), Addr: 0x100000, Data: []byte{9}}
	c := sw.fromDownstream(sw.ports[0], spoofed)
	if c.OK() {
		t.Fatal("spoofed TLP passed source validation")
	}
	if sw.DroppedTLPs != 1 {
		t.Fatalf("DroppedTLPs = %d, want 1", sw.DroppedTLPs)
	}
	if len(h.seen) != 0 {
		t.Fatal("spoofed TLP reached root")
	}
}

func TestNestedSwitchRouting(t *testing.T) {
	m := mem.New()
	m.AllocRange(0x200000, 4*mem.PageSize)
	h := &memHandler{m: m}
	rootSw := NewSwitch("root", ACS{SourceValidation: true, P2PRedirect: true})
	leafSw := NewSwitch("leaf", ACS{SourceValidation: true, P2PRedirect: true})
	d := newFakeDev(MakeBDF(2, 0, 0), 0xFEB20000)
	leafSw.AttachDevice(d)
	rootSw.AttachSwitch(leafSw)
	rc := NewRootComplex(rootSw, h)
	if err := d.DMAWrite(0x200000, []byte{5}); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	m.MustRead(0x200000, b)
	if b[0] != 5 {
		t.Fatal("DMA through nested switch failed")
	}
	if _, err := rc.DeviceByBDF(MakeBDF(2, 0, 0)); err != nil {
		t.Fatal("nested device not enumerable:", err)
	}
	if len(rc.Devices()) != 1 {
		t.Fatalf("enumerated %d devices, want 1", len(rc.Devices()))
	}
}

func TestRaiseMSIRequiresEnable(t *testing.T) {
	_, _, a, _, h := buildFabric(ACS{})
	if a.RaiseMSI() {
		t.Fatal("MSI fired while disabled")
	}
	off := a.Config().MSICapOffset()
	a.Config().Write(off+4, 4, 0xFEE00000)
	a.Config().Write(off+8, 2, 0x31)
	a.Config().Write(off+2, 2, MSICtlEnable)
	// MSI address is not DRAM here, so populate it to let the handler
	// accept the write.
	h.m.AllocPage(0xFEE00000)
	if !a.RaiseMSI() {
		t.Fatal("enabled MSI did not fire")
	}
	if len(h.seen) != 1 || h.seen[0].Addr != 0xFEE00000 {
		t.Fatalf("MSI TLP = %+v", h.seen)
	}
	a.Config().SetMSIMasked(true)
	if a.RaiseMSI() {
		t.Fatal("masked MSI fired")
	}
}

func TestRootComplexConfigAccess(t *testing.T) {
	rc, _, a, _, _ := buildFabric(ACS{})
	v, err := rc.ConfigRead(a.BDF(), CfgVendorID, 2)
	if err != nil || v != 0x8086 {
		t.Fatalf("ConfigRead = %#x, %v", v, err)
	}
	if err := rc.ConfigWrite(a.BDF(), CfgIntLine, 1, 9); err != nil {
		t.Fatal(err)
	}
	if got, _ := rc.ConfigRead(a.BDF(), CfgIntLine, 1); got != 9 {
		t.Fatalf("IntLine = %d, want 9", got)
	}
	if _, err := rc.ConfigRead(MakeBDF(7, 7, 7), 0, 2); err == nil {
		t.Fatal("config read of missing device succeeded")
	}
	if err := rc.ConfigWrite(MakeBDF(7, 7, 7), 4, 2, 0); err == nil {
		t.Fatal("config write of missing device succeeded")
	}
}

func TestFindMMIO(t *testing.T) {
	rc, _, _, b, _ := buildFabric(ACS{})
	dev, bar, off, ok := rc.FindMMIO(0xFEB10020)
	if !ok || dev != Device(b) || bar != 0 || off != 0x20 {
		t.Fatalf("FindMMIO = %v %d %d %v", dev, bar, off, ok)
	}
	if _, _, _, ok := rc.FindMMIO(0xDEAD0000); ok {
		t.Fatal("FindMMIO matched unmapped address")
	}

}

func TestDetachedDeviceDMAFails(t *testing.T) {
	d := newFakeDev(MakeBDF(0, 1, 0), 0xFEB00000)
	if err := d.DMAWrite(0x1000, []byte{1}); err == nil {
		t.Fatal("DMA from detached device succeeded")
	}
	if err := d.DMAReadInto(0x1000, make([]byte, 1)); err == nil {
		t.Fatal("DMA read from detached device succeeded")
	}
	if d.Attached() {
		t.Fatal("detached device claims attachment")
	}
}

// Property: for any 4-byte-aligned offset and value, a config write outside
// read-only and BAR regions reads back the bytes written.
func TestConfigWriteReadProperty(t *testing.T) {
	f := func(off8 uint8, v uint32) bool {
		c := NewConfigSpace(1, 2, 0)
		off := 0x40 + int(off8)%0x40 // scratch area, no caps registered
		c.Write(off, 4, v)
		return c.Read(off, 4) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MemWrite then MemRead of the same bytes through the full fabric
// round-trips for arbitrary payloads.
func TestFabricRoundTripProperty(t *testing.T) {
	_, _, a, _, _ := buildFabric(ACS{SourceValidation: true, P2PRedirect: true})
	f := func(data []byte) bool {
		if len(data) == 0 || len(data) > 4096 {
			return true
		}
		if err := a.DMAWrite(0x100800, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := a.DMAReadInto(0x100800, got); err != nil {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
