// Package hw assembles the simulated platform: event loop, DRAM, PCIe
// fabric, IOMMU and interrupt controller, and implements the DMA path from a
// device TLP through ACS routing and IOMMU translation to DRAM or the MSI
// window (Figure 4 of the paper).
package hw

import (
	"fmt"

	"sud/internal/iommu"
	"sud/internal/irq"
	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/sim"
	"sud/internal/trace"
)

// DRAM layout of the modelled machine.
const (
	// DRAMBase is where physical memory starts (we skip the legacy low
	// megabyte for clarity in dumps).
	DRAMBase mem.Addr = 0x00100000
	// DRAMSize is 512 MiB, plenty for rings, buffers and kernel state.
	DRAMSize uint64 = 512 << 20
)

// Platform selects the hardware configuration under test. The security
// matrix in §5.2/§6 varies exactly these knobs.
type Platform struct {
	// IOMMU is the DMA-remapping configuration (vendor, interrupt
	// remapping support).
	IOMMU iommu.Config
	// ACS configures the PCIe switch. Disabled ACS (or LegacyBus)
	// re-opens the peer-to-peer DMA attack.
	ACS pci.ACS
	// LegacyBus models a conventional shared PCI bus instead of PCIe.
	LegacyBus bool
	// EnableInterruptRemap turns the remap table on (requires
	// IOMMU.InterruptRemapping).
	EnableInterruptRemap bool
	// Seed for the machine's deterministic random source.
	Seed uint64
	// Cores overrides the modelled CPU core count; 0 keeps sim.Cores
	// (the paper's dual-core X301). The multi-flow scale scenarios model
	// a server-class DUT with more cores.
	Cores int
}

// DefaultPlatform is the paper's test machine: Intel VT-d without interrupt
// remapping support (§5.2), PCIe with full ACS.
func DefaultPlatform() Platform {
	return Platform{
		IOMMU: iommu.Config{Vendor: iommu.VendorIntel, InterruptRemapping: false},
		ACS:   pci.ACS{SourceValidation: true, P2PRedirect: true},
		Seed:  1,
	}
}

// SecurePlatform is the configuration §6 calls for: interrupt remapping
// available and enabled.
func SecurePlatform() Platform {
	p := DefaultPlatform()
	p.IOMMU.InterruptRemapping = true
	p.EnableInterruptRemap = true
	return p
}

// Machine is one simulated computer.
type Machine struct {
	Loop  *sim.Loop
	Mem   *mem.Memory
	CPU   *sim.CPUStats
	IOMMU *iommu.Unit
	IRQ   *irq.Controller
	RC    *pci.RootComplex
	Sw    *pci.Switch
	Vec   *irq.VectorAllocator
	Alloc *mem.Allocator
	Rand  *sim.Rand
	// Trace is the machine's observability plane: always-on latency
	// stamps plus the opt-in span recorder (trace.Tracer doc has the cost
	// discipline). Devices receive it at attach via SetTracer.
	Trace *trace.Tracer

	Platform Platform

	// DMAErrors counts device DMA transactions the fabric rejected.
	DMAErrors uint64
}

// NewMachine builds a machine for the given platform.
func NewMachine(p Platform) *Machine {
	loop := sim.NewLoop()
	cores := p.Cores
	if cores == 0 {
		cores = sim.Cores
	}
	m := &Machine{
		Loop:     loop,
		Mem:      mem.New(),
		CPU:      sim.NewCPUStats(cores),
		IRQ:      irq.NewController(loop),
		Vec:      irq.NewVectorAllocator(),
		Rand:     sim.NewRand(p.Seed),
		Platform: p,
	}
	m.Trace = trace.New(loop, m.CPU)
	m.Mem.AddRAMRange(DRAMBase, DRAMSize)
	m.Alloc = mem.NewAllocator(m.Mem, DRAMBase, DRAMSize)
	m.IOMMU = iommu.New(p.IOMMU, &loop.Clock)
	m.Sw = pci.NewSwitch("pcie-root-port", p.ACS)
	m.Sw.Legacy = p.LegacyBus
	m.RC = pci.NewRootComplex(m.Sw, m)
	if p.EnableInterruptRemap {
		if !p.IOMMU.InterruptRemapping {
			panic("hw: interrupt remapping enabled but not supported by the chipset")
		}
		m.IRQ.Remap = &irq.RemapTable{}
	}
	return m
}

// Now returns the machine's virtual time.
func (m *Machine) Now() sim.Time { return m.Loop.Now() }

// AttachDevice plugs a device into the root switch. Device models that
// implement SetTracer receive the machine's observability plane so their
// engines can stamp RX births and record dev.start/dev.complete hops.
func (m *Machine) AttachDevice(d pci.Device) {
	m.Sw.AttachDevice(d)
	if ts, ok := d.(interface{ SetTracer(*trace.Tracer) }); ok {
		ts.SetTracer(m.Trace)
	}
}

// HandleUpstream implements pci.UpstreamHandler: every TLP that reaches the
// root complex is translated by the IOMMU and then delivered to DRAM, the
// MSI window, or (for redirected P2P the IOMMU explicitly permits) a device
// BAR.
func (m *Machine) HandleUpstream(tlp pci.TLP) pci.Completion {
	write := tlp.Type == pci.MemWrite
	phys, _, err := m.IOMMU.TranslateQ(tlp.Requester, tlp.Stream, tlp.Addr, write)
	if err != nil {
		m.DMAErrors++
		return pci.Completion{Err: err}
	}

	if iommu.InMSIWindow(phys) {
		if !write {
			m.DMAErrors++
			return pci.Completion{Err: &pci.RouteError{TLP: tlp, Reason: "read from MSI window"}}
		}
		m.IRQ.MSIWrite(tlp.Requester, phys, tlp.Data)
		return pci.Completion{}
	}

	// Redirected peer-to-peer: the translated address may point at
	// another device's BAR. Reaching here required an explicit IOMMU
	// mapping, i.e. a deliberate kernel grant.
	if dev, bar, off, ok := m.RC.FindMMIO(phys); ok {
		routed := tlp
		routed.Addr = phys
		return pci.DeliverMMIO(dev, bar, off, routed)
	}

	switch tlp.Type {
	case pci.MemWrite:
		if err := m.Mem.Write(phys, tlp.Data); err != nil {
			m.DMAErrors++
			return pci.Completion{Err: err}
		}
		return pci.Completion{}
	case pci.MemRead:
		// The data lands straight in the requester's buffer (TLP.Dst).
		if err := m.Mem.Read(phys, tlp.Dst); err != nil {
			m.DMAErrors++
			return pci.Completion{Err: err}
		}
		return pci.Completion{}
	default:
		m.DMAErrors++
		return pci.Completion{Err: &pci.RouteError{TLP: tlp, Reason: "unsupported TLP type"}}
	}
}

// MMIORead performs a CPU-initiated read of a device register, charging the
// given CPU account the uncached-access cost.
func (m *Machine) MMIORead(acct *sim.CPUAccount, addr mem.Addr, size int) (uint64, error) {
	dev, bar, off, ok := m.RC.FindMMIO(addr)
	if !ok {
		return 0, fmt.Errorf("hw: MMIO read of unmapped address %#x", uint64(addr))
	}
	if acct != nil {
		acct.Charge(sim.CostMMIORead)
	}
	return dev.MMIORead(bar, off, size), nil
}

// MMIOWrite performs a CPU-initiated write of a device register.
func (m *Machine) MMIOWrite(acct *sim.CPUAccount, addr mem.Addr, size int, v uint64) error {
	dev, bar, off, ok := m.RC.FindMMIO(addr)
	if !ok {
		return fmt.Errorf("hw: MMIO write of unmapped address %#x", uint64(addr))
	}
	if acct != nil {
		acct.Charge(sim.CostMMIOWrite)
	}
	dev.MMIOWrite(bar, off, size, v)
	return nil
}
