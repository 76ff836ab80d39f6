package pci

import (
	"bytes"
	"testing"

	"sud/internal/mem"
)

// quietHandler terminates TLPs in memory without recording them, so an
// allocation count measures the fabric alone.
type quietHandler struct{ m *mem.Memory }

func (h quietHandler) HandleUpstream(tlp TLP) Completion {
	if tlp.Type == MemRead {
		return Completion{Err: h.m.Read(tlp.Addr, tlp.Dst)}
	}
	return Completion{Err: h.m.Write(tlp.Addr, tlp.Data)}
}

// TestP2PReadIntoCallerBufferAllocatesNothing: a peer-to-peer read routed
// straight to a sibling's BAR fills the requester's buffer in place.
func TestP2PReadIntoCallerBufferAllocatesNothing(t *testing.T) {
	_, _, a, b, h := buildFabric(ACS{}) // no P2P redirect: delivered directly
	for i := range b.regs[:64] {
		b.regs[0x40+i] = byte(i + 1)
	}
	dst := make([]byte, 64)
	allocs := testing.AllocsPerRun(100, func() {
		if err := a.DMAReadInto(0xFEB10040, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("P2P read allocates %.0f times, want 0", allocs)
	}
	if !bytes.Equal(dst, b.regs[0x40:0x80]) {
		t.Fatalf("P2P read got % x", dst[:8])
	}
	if len(h.seen) != 0 {
		t.Fatalf("direct P2P read reached the root (%d TLPs)", len(h.seen))
	}
}

// TestChildSwitchTLPAllocatesNothing: ACS source validation of a TLP from
// behind a child switch walks the ports in place, so a read and a write
// through two switch levels allocate nothing.
func TestChildSwitchTLPAllocatesNothing(t *testing.T) {
	m := mem.New()
	m.AllocRange(0x200000, 4*mem.PageSize)
	acs := ACS{SourceValidation: true, P2PRedirect: true}
	rootSw, leafSw := NewSwitch("root", acs), NewSwitch("leaf", acs)
	rootSw.AttachDevice(newFakeDev(MakeBDF(1, 0, 0), 0xFEB00000))
	leafSw.AttachDevice(newFakeDev(MakeBDF(2, 0, 0), 0xFEB10000))
	d := newFakeDev(MakeBDF(2, 1, 0), 0xFEB20000) // last device: the walk visits every port
	leafSw.AttachDevice(d)
	rootSw.AttachSwitch(leafSw)
	NewRootComplex(rootSw, quietHandler{m})

	src := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	dst := make([]byte, len(src))
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.DMAWrite(0x200100, src); err != nil {
			t.Fatal(err)
		}
		if err := d.DMAReadInto(0x200100, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("TLPs from behind a child switch allocate %.0f times, want 0", allocs)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("round trip got % x", dst)
	}
	if rootSw.DroppedTLPs != 0 || leafSw.DroppedTLPs != 0 {
		t.Fatal("source validation dropped a genuine requester")
	}
}

// TestRaiseMSIAllocatesNothing: the message travels the fabric from the
// function's own buffer.
func TestRaiseMSIAllocatesNothing(t *testing.T) {
	m := mem.New()
	m.AllocPage(0xFEE00000)
	sw := NewSwitch("sw0", ACS{})
	d := newFakeDev(MakeBDF(1, 0, 0), 0xFEB00000)
	sw.AttachDevice(d)
	NewRootComplex(sw, quietHandler{m})
	off := d.Config().MSICapOffset()
	d.Config().Write(off+4, 4, 0xFEE00000)
	d.Config().Write(off+8, 2, 0x4131)
	d.Config().Write(off+2, 2, MSICtlEnable)
	allocs := testing.AllocsPerRun(100, func() {
		if !d.RaiseMSI() {
			t.Fatal("enabled MSI did not fire")
		}
	})
	if allocs != 0 {
		t.Fatalf("RaiseMSI allocates %.0f times, want 0", allocs)
	}
	got := make([]byte, 4)
	if err := m.Read(0xFEE00000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0x31, 0x41, 0, 0}) {
		t.Fatalf("MSI message % x", got)
	}
}
