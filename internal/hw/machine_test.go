package hw

import (
	"testing"

	"sud/internal/iommu"
	"sud/internal/irq"
	"sud/internal/mem"
	"sud/internal/pci"
)

// testDev is a DMA-capable device with one memory BAR of scratch registers.
type testDev struct {
	pci.FuncBase
	regs [4096]byte
}

func newTestDev(bdf pci.BDF, barBase uint64) *testDev {
	d := &testDev{}
	cfg := pci.NewConfigSpace(0x8086, 0x10D3, 0x02)
	cfg.SetBAR(0, barBase, 4096, false)
	cfg.AddMSICapability()
	cfg.Write(pci.CfgCommand, 2, pci.CmdMemSpace|pci.CmdBusMaster)
	d.InitFunc(bdf, cfg)
	return d
}

func (d *testDev) MMIORead(bar int, off uint64, size int) uint64 {
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(d.regs[(off+uint64(i))%4096])
	}
	return v
}
func (d *testDev) MMIOWrite(bar int, off uint64, size int, v uint64) {
	for i := 0; i < size; i++ {
		d.regs[(off+uint64(i))%4096] = byte(v >> (8 * i))
	}
}
func (d *testDev) IORead(bar int, off uint64, size int) uint32     { return 0xFFFFFFFF }
func (d *testDev) IOWrite(bar int, off uint64, size int, v uint32) {}

func build(p Platform) (*Machine, *testDev) {
	m := NewMachine(p)
	d := newTestDev(pci.MakeBDF(1, 0, 0), 0xFEB00000)
	m.AttachDevice(d)
	return m, d
}

func TestDMARequiresDomain(t *testing.T) {
	m, d := build(DefaultPlatform())
	if err := d.DMAWrite(DRAMBase, []byte{1}); err == nil {
		t.Fatal("DMA without an IOMMU domain succeeded")
	}
	if m.DMAErrors != 1 || len(m.IOMMU.Faults()) != 1 {
		t.Fatalf("errors=%d faults=%d", m.DMAErrors, len(m.IOMMU.Faults()))
	}
}

func TestDMAThroughDomain(t *testing.T) {
	m, d := build(DefaultPlatform())
	dom := m.IOMMU.NewDomain()
	phys, _ := m.Alloc.AllocPages(1)
	if err := dom.Map(0x40000000, phys, iommu.PermRW); err != nil {
		t.Fatal(err)
	}
	m.IOMMU.Attach(d.BDF(), dom)
	if err := d.DMAWrite(0x40000042, []byte{0xCA, 0xFE}); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 2)
	m.Mem.MustRead(phys+0x42, b)
	if b[0] != 0xCA || b[1] != 0xFE {
		t.Fatalf("DRAM contains % x", b)
	}
	got := make([]byte, 2)
	if err := d.DMAReadInto(0x40000042, got); err != nil || got[0] != 0xCA {
		t.Fatalf("DMA read: % x, %v", got, err)
	}
}

func TestDMAOutsideMappingFaults(t *testing.T) {
	m, d := build(DefaultPlatform())
	dom := m.IOMMU.NewDomain()
	phys, _ := m.Alloc.AllocPages(1)
	if err := dom.Map(0x40000000, phys, iommu.PermRW); err != nil {
		t.Fatal(err)
	}
	m.IOMMU.Attach(d.BDF(), dom)
	// One page is mapped; the next page is not.
	if err := d.DMAWrite(0x40001000, []byte{1}); err == nil {
		t.Fatal("DMA outside mapping succeeded")
	}
}

func TestMSIWindowWriteRaisesInterrupt(t *testing.T) {
	m, d := build(DefaultPlatform()) // Intel: implicit MSI mapping
	m.IOMMU.Attach(d.BDF(), m.IOMMU.NewDomain())
	var fired int
	if err := m.IRQ.Register(0x41, func(irq.Vector) { fired++ }); err != nil {
		t.Fatal(err)
	}
	// Program and enable the device's MSI capability, then raise it.
	cfg := d.Config()
	off := cfg.MSICapOffset()
	cfg.Write(off+4, 4, 0xFEE00000)
	cfg.Write(off+8, 2, 0x41)
	cfg.Write(off+2, 2, pci.MSICtlEnable)
	if !d.RaiseMSI() {
		t.Fatal("RaiseMSI failed")
	}
	m.Loop.Run()
	if fired != 1 {
		t.Fatalf("interrupt fired %d times, want 1", fired)
	}
}

func TestMSIWindowReadRejected(t *testing.T) {
	m, d := build(DefaultPlatform())
	m.IOMMU.Attach(d.BDF(), m.IOMMU.NewDomain())
	if err := d.DMAReadInto(0xFEE00000, make([]byte, 4)); err == nil {
		t.Fatal("read from MSI window succeeded")
	}
	if m.DMAErrors == 0 {
		t.Fatal("MSI window read not counted as DMA error")
	}
}

func TestStrayDMAToMSIWindowIntel(t *testing.T) {
	// §5.2: on Intel without interrupt remapping, a stray DMA write to
	// the MSI address raises a real interrupt — the livelock weakness.
	m, d := build(DefaultPlatform())
	m.IOMMU.Attach(d.BDF(), m.IOMMU.NewDomain())
	var fired int
	if err := m.IRQ.Register(0x20, func(irq.Vector) { fired++ }); err != nil {
		t.Fatal(err)
	}
	if err := d.DMAWrite(0xFEE00000, []byte{0x20, 0, 0, 0}); err != nil {
		t.Fatal("stray MSI DMA rejected on Intel; paper says it cannot be:", err)
	}
	m.Loop.Run()
	if fired != 1 {
		t.Fatal("stray MSI DMA did not raise an interrupt")
	}
}

func TestStrayDMAToMSIWindowBlockedByRemap(t *testing.T) {
	// §6: with interrupt remapping, the stray write reaches the MSI
	// controller but the remap table drops it (no valid IRTE).
	m, d := build(SecurePlatform())
	m.IOMMU.Attach(d.BDF(), m.IOMMU.NewDomain())
	var fired int
	if err := m.IRQ.Register(0x20, func(irq.Vector) { fired++ }); err != nil {
		t.Fatal(err)
	}
	if err := d.DMAWrite(0xFEE00000, []byte{0x20, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	m.Loop.Run()
	if fired != 0 {
		t.Fatal("remap table did not block stray MSI")
	}
	if m.IRQ.Remap.Blocked != 1 {
		t.Fatalf("Blocked = %d, want 1", m.IRQ.Remap.Blocked)
	}
}

func TestStrayDMAToMSIWindowBlockedOnAMD(t *testing.T) {
	// §6: AMD has no implicit MSI mapping, so with the MSI page unmapped
	// the stray write faults in the IOMMU.
	p := DefaultPlatform()
	p.IOMMU.Vendor = iommu.VendorAMD
	m, d := build(p)
	m.IOMMU.Attach(d.BDF(), m.IOMMU.NewDomain())
	if err := d.DMAWrite(0xFEE00000, []byte{0x20, 0, 0, 0}); err == nil {
		t.Fatal("stray MSI DMA succeeded on AMD with MSI page unmapped")
	}
}

func TestRedirectedP2PRequiresIOMMUGrant(t *testing.T) {
	m, a := build(DefaultPlatform())
	b := newTestDev(pci.MakeBDF(1, 1, 0), 0xFEB10000)
	m.AttachDevice(b)
	dom := m.IOMMU.NewDomain()
	m.IOMMU.Attach(a.BDF(), dom)

	// Without a mapping for B's BAR, the redirected P2P faults.
	if err := a.DMAWrite(0xFEB10000, []byte{0x11}); err == nil {
		t.Fatal("P2P DMA without IOMMU grant succeeded")
	}
	// With an explicit kernel grant it is delivered (device delegation,
	// §6 "Device delegation" would use this).
	if err := dom.Map(0xFEB10000, 0xFEB10000, iommu.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := a.DMAWrite(0xFEB10008, []byte{0x11}); err != nil {
		t.Fatal(err)
	}
	if b.regs[8] != 0x11 {
		t.Fatal("granted P2P write did not reach peer registers")
	}
}

func TestCPUMMIOAccess(t *testing.T) {
	m, d := build(DefaultPlatform())
	acct := m.CPU.Account("kernel")
	if err := m.MMIOWrite(acct, 0xFEB00010, 4, 0xA1B2C3D4); err != nil {
		t.Fatal(err)
	}
	v, err := m.MMIORead(acct, 0xFEB00010, 4)
	if err != nil || v != 0xA1B2C3D4 {
		t.Fatalf("MMIO read = %#x, %v", v, err)
	}
	if acct.Busy() == 0 {
		t.Fatal("MMIO access did not charge CPU time")
	}
	if _, err := m.MMIORead(acct, 0xDEAD0000, 4); err == nil {
		t.Fatal("MMIO read of unmapped address succeeded")
	}
	if err := m.MMIOWrite(acct, 0xDEAD0000, 4, 0); err == nil {
		t.Fatal("MMIO write of unmapped address succeeded")
	}
	_ = d
}

func TestLegacyBusP2PUnfiltered(t *testing.T) {
	p := DefaultPlatform()
	p.LegacyBus = true
	m, a := build(p)
	b := newTestDev(pci.MakeBDF(1, 1, 0), 0xFEB10000)
	m.AttachDevice(b)
	m.IOMMU.Attach(a.BDF(), m.IOMMU.NewDomain())
	// On a legacy shared bus the P2P write never reaches the IOMMU.
	if err := a.DMAWrite(0xFEB10000, []byte{0x22}); err != nil {
		t.Fatal(err)
	}
	if b.regs[0] != 0x22 {
		t.Fatal("legacy P2P write blocked")
	}
}

func TestRemapMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("enabling remap without chipset support did not panic")
		}
	}()
	p := DefaultPlatform()
	p.EnableInterruptRemap = true // but InterruptRemapping stays false
	NewMachine(p)
}

func TestDRAMPopulated(t *testing.T) {
	m := NewMachine(DefaultPlatform())
	if !m.Mem.Populated(DRAMBase) || !m.Mem.Populated(DRAMBase+mem.Addr(DRAMSize)-mem.PageSize) {
		t.Fatal("DRAM range not populated")
	}
	if m.Mem.Populated(0) {
		t.Fatal("low memory unexpectedly populated")
	}
}

// TestDMAReadIntoAllocatesNothing: a DMA read through the IOMMU lands in
// the device's own buffer, and IOTLB misses evict in place. The device
// cycles over more pages than the IOTLB holds, so every read walks and
// evicts.
func TestDMAReadIntoAllocatesNothing(t *testing.T) {
	m, d := build(DefaultPlatform())
	dom := m.IOMMU.NewDomain()
	const pages = 80
	for i := 0; i < pages; i++ {
		phys, ok := m.Alloc.AllocPages(1)
		if !ok {
			t.Fatal("oom")
		}
		m.Mem.MustWrite(phys+8, []byte{byte(i)})
		if err := dom.Map(0x40000000+mem.Addr(i)*mem.PageSize, phys, iommu.PermRW); err != nil {
			t.Fatal(err)
		}
	}
	m.IOMMU.Attach(d.BDF(), dom)
	dst := make([]byte, 64)
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < pages; i++ {
			if err := d.DMAReadIntoQ(0, 0x40000000+mem.Addr(i)*mem.PageSize, dst); err != nil {
				t.Fatal(err)
			}
			if dst[8] != byte(i) {
				t.Fatalf("page %d read % x", i, dst[:16])
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%d DMA reads allocate %.0f times, want 0", pages, allocs)
	}
	if _, misses := m.IOMMU.TLBStats(); misses < 10*pages {
		t.Fatalf("%d IOTLB misses: the reads did not evict", misses)
	}
}
