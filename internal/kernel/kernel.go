// Package kernel is the simulated operating system kernel: interrupt
// dispatch, jiffies, the kernel log, the network stack (subpackage
// netstack), and the trusted in-kernel driver host — the baseline
// configuration the paper's Figure 8 compares SUD against, in which drivers
// run with full privileges and devices DMA anywhere (passthrough IOMMU
// domain).
package kernel

import (
	"fmt"

	"sud/internal/drivers/api"
	"sud/internal/hw"
	"sud/internal/iommu"
	"sud/internal/irq"
	"sud/internal/kernel/audio"
	"sud/internal/kernel/blockdev"
	"sud/internal/kernel/netstack"
	"sud/internal/kernel/wifistack"
	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/sim"
	"sud/internal/trace"
)

// HZ is the kernel tick rate; Jiffies advance every 1/HZ seconds.
const HZ = 250

// CostKernelAPICall is the fixed bookkeeping cost of one driver-API call in
// the trusted in-kernel host (function call, small amounts of locking).
const CostKernelAPICall sim.Duration = 60

// Kernel is the simulated kernel of one machine.
type Kernel struct {
	M     *hw.Machine
	Acct  *sim.CPUAccount
	Net   *netstack.Stack
	Wifi  *wifistack.Manager
	Audio *audio.Manager
	Blk   *blockdev.Manager

	passthrough *iommu.Domain
	logs        []string

	// bound tracks in-kernel driver instances by device.
	bound map[pci.BDF]api.Instance

	// stormHandlers dispatches interrupt-storm notifications per vector.
	stormHandlers map[irq.Vector]func(rate int)
}

// New boots a kernel on machine m.
func New(m *hw.Machine) *Kernel {
	acct := m.CPU.Account("kernel")
	k := &Kernel{
		M:             m,
		Acct:          acct,
		Net:           netstack.New(m.Loop, acct),
		Wifi:          wifistack.New(m.Loop, acct),
		Audio:         audio.New(m.Loop, acct),
		Blk:           blockdev.New(m.Loop, acct),
		bound:         make(map[pci.BDF]api.Instance),
		stormHandlers: make(map[irq.Vector]func(rate int)),
	}
	k.Blk.Trace = m.Trace
	k.Net.Trace = m.Trace
	m.IRQ.OnStorm = func(v irq.Vector, rate int) {
		if h := k.stormHandlers[v]; h != nil {
			h(rate)
		}
	}
	return k
}

// RegisterStormHandler installs (or, with nil, removes) the interrupt-storm
// response for a vector. The safe PCI access module registers one per
// untrusted driver (§3.2.2).
func (k *Kernel) RegisterStormHandler(v irq.Vector, h func(rate int)) {
	if h == nil {
		delete(k.stormHandlers, v)
		return
	}
	k.stormHandlers[v] = h
}

// Jiffies returns the tick counter derived from virtual time.
func (k *Kernel) Jiffies() uint64 {
	return uint64(k.M.Now()) / uint64(sim.Second/HZ)
}

// Logf appends a kernel log line.
func (k *Kernel) Logf(format string, args ...any) {
	k.logs = append(k.logs, fmt.Sprintf(format, args...))
}

// Log returns the kernel log.
func (k *Kernel) Log() []string { return k.logs }

// PassthroughDomain returns the shared identity domain used for devices
// driven by trusted in-kernel drivers.
func (k *Kernel) PassthroughDomain() *iommu.Domain {
	if k.passthrough == nil {
		k.passthrough = k.M.IOMMU.NewDomain()
		k.passthrough.Passthrough = true
	}
	return k.passthrough
}

// BindInKernel probes drv against dev as a fully trusted in-kernel driver:
// direct hardware access, passthrough DMA, interrupt handlers running in
// kernel context. This is the baseline ("Kernel driver") configuration.
func (k *Kernel) BindInKernel(drv api.Driver, dev pci.Device) (api.Instance, error) {
	cfg := dev.Config()
	if !drv.Match(cfg.VendorID(), cfg.DeviceID()) {
		return nil, fmt.Errorf("kernel: driver %s does not match device %s (%04x:%04x)",
			drv.Name(), dev.BDF(), cfg.VendorID(), cfg.DeviceID())
	}
	if _, dup := k.bound[dev.BDF()]; dup {
		return nil, fmt.Errorf("kernel: device %s already bound", dev.BDF())
	}
	k.M.IOMMU.Attach(dev.BDF(), k.PassthroughDomain())
	env := &kernelEnv{k: k, dev: dev, name: drv.Name()}
	inst, err := drv.Probe(env)
	if err != nil {
		k.M.IOMMU.Attach(dev.BDF(), nil)
		return nil, fmt.Errorf("kernel: probe %s on %s: %w", drv.Name(), dev.BDF(), err)
	}
	k.bound[dev.BDF()] = inst
	if ts, ok := inst.(interface{ SetTracer(*trace.Tracer) }); ok {
		ts.SetTracer(k.M.Trace)
	}
	k.Logf("%s: bound to %s", drv.Name(), dev.BDF())
	return inst, nil
}

// Unbind removes the driver bound to dev.
func (k *Kernel) Unbind(dev pci.Device) {
	if inst, ok := k.bound[dev.BDF()]; ok {
		inst.Remove()
		delete(k.bound, dev.BDF())
		k.M.IOMMU.Attach(dev.BDF(), nil)
	}
}

// kernelEnv implements api.Env for trusted in-kernel drivers.
type kernelEnv struct {
	k    *Kernel
	dev  pci.Device
	name string

	vector  irq.Vector
	irqSet  bool
	remapIx uint8
}

var _ api.Env = (*kernelEnv)(nil)

func (e *kernelEnv) charge(d sim.Duration) { e.k.Acct.Charge(d) }

func (e *kernelEnv) ConfigRead(off, size int) (uint32, error) {
	e.charge(sim.CostPCIConfig)
	return e.dev.Config().Read(off, size), nil
}

func (e *kernelEnv) ConfigWrite(off, size int, v uint32) error {
	e.charge(sim.CostPCIConfig)
	e.dev.Config().Write(off, size, v)
	return nil
}

func (e *kernelEnv) EnableDevice() error {
	e.charge(sim.CostPCIConfig)
	cfg := e.dev.Config()
	cmd := cfg.Read(pci.CfgCommand, 2)
	cfg.Write(pci.CfgCommand, 2, cmd|pci.CmdMemSpace|pci.CmdIOSpace)
	return nil
}

func (e *kernelEnv) SetMaster() error {
	e.charge(sim.CostPCIConfig)
	cfg := e.dev.Config()
	cmd := cfg.Read(pci.CfgCommand, 2)
	cfg.Write(pci.CfgCommand, 2, cmd|pci.CmdBusMaster)
	return nil
}

func (e *kernelEnv) FindCapability(id uint8) int {
	e.charge(sim.CostPCIConfig)
	return FindCapability(e.dev.Config(), id)
}

// FindCapability walks a config space's capability list.
func FindCapability(cfg *pci.ConfigSpace, id uint8) int {
	off := int(cfg.Read(pci.CfgCapPtr, 1))
	for iter := 0; off != 0 && iter < 16; iter++ {
		if uint8(cfg.Read(off, 1)) == id {
			return off
		}
		off = int(cfg.Read(off+1, 1))
	}
	return 0
}

func (e *kernelEnv) IORemap(bar int) (api.MMIO, error) {
	e.charge(CostKernelAPICall)
	base, info := e.dev.Config().BAR(bar)
	if info.Size == 0 || info.IO {
		return nil, fmt.Errorf("kernel: BAR %d of %s is not a memory BAR", bar, e.dev.BDF())
	}
	_ = base
	return &kernelMMIO{e: e, bar: bar}, nil
}

type kernelMMIO struct {
	e   *kernelEnv
	bar int
}

func (m *kernelMMIO) Read32(off uint64) uint32 {
	m.e.charge(sim.CostMMIORead)
	return uint32(m.e.dev.MMIORead(m.bar, off, 4))
}

func (m *kernelMMIO) Write32(off uint64, v uint32) {
	m.e.charge(sim.CostMMIOWrite)
	m.e.dev.MMIOWrite(m.bar, off, 4, uint64(v))
}

func (e *kernelEnv) RequestRegion(bar int) (api.PortIO, error) {
	e.charge(CostKernelAPICall)
	_, info := e.dev.Config().BAR(bar)
	if info.Size == 0 || !info.IO {
		return nil, fmt.Errorf("kernel: BAR %d of %s is not an IO BAR", bar, e.dev.BDF())
	}
	return &kernelPortIO{e: e, bar: bar}, nil
}

type kernelPortIO struct {
	e   *kernelEnv
	bar int
}

func (p *kernelPortIO) In8(off uint64) uint8 {
	p.e.charge(sim.CostIOPort)
	return uint8(p.e.dev.IORead(p.bar, off, 1))
}

func (p *kernelPortIO) Out8(off uint64, v uint8) {
	p.e.charge(sim.CostIOPort)
	p.e.dev.IOWrite(p.bar, off, 1, uint32(v))
}

func (p *kernelPortIO) In16(off uint64) uint16 {
	p.e.charge(sim.CostIOPort)
	return uint16(p.e.dev.IORead(p.bar, off, 2))
}

func (p *kernelPortIO) Out16(off uint64, v uint16) {
	p.e.charge(sim.CostIOPort)
	p.e.dev.IOWrite(p.bar, off, 2, uint32(v))
}

// kernelDMA is DMA memory for the trusted host: physical pages, bus address
// == physical address.
type kernelDMA struct {
	e     *kernelEnv
	phys  mem.Addr
	size  int
	pages int
	freed bool
}

func (e *kernelEnv) allocDMA(size int) (api.DMABuf, error) {
	e.charge(CostKernelAPICall)
	pages := (size + 4095) / 4096
	base, ok := e.k.M.Alloc.AllocPages(pages)
	if !ok {
		return nil, fmt.Errorf("kernel: out of DMA memory (%d pages)", pages)
	}
	return &kernelDMA{e: e, phys: base, size: size, pages: pages}, nil
}

func (e *kernelEnv) AllocCoherent(size int) (api.DMABuf, error) { return e.allocDMA(size) }
func (e *kernelEnv) AllocCaching(size int) (api.DMABuf, error)  { return e.allocDMA(size) }

func (e *kernelEnv) FreeDMA(b api.DMABuf) error {
	kb, ok := b.(*kernelDMA)
	if !ok {
		return fmt.Errorf("kernel: foreign DMA buffer")
	}
	if kb.freed {
		return fmt.Errorf("kernel: double free of DMA buffer at %#x", kb.phys)
	}
	kb.freed = true
	e.k.M.Alloc.FreePages(kb.phys, kb.pages)
	return nil
}

func (b *kernelDMA) BusAddr() mem.Addr { return b.phys }
func (b *kernelDMA) Size() int         { return b.size }

func (b *kernelDMA) Read(off int, p []byte) error {
	if off < 0 || off+len(p) > b.size {
		return fmt.Errorf("kernel: DMA read out of bounds")
	}
	b.e.charge(sim.Copy(len(p)))
	return b.e.k.M.Mem.Read(b.phys+mem.Addr(off), p)
}

func (b *kernelDMA) Write(off int, p []byte) error {
	if off < 0 || off+len(p) > b.size {
		return fmt.Errorf("kernel: DMA write out of bounds")
	}
	b.e.charge(sim.Copy(len(p)))
	return b.e.k.M.Mem.Write(b.phys+mem.Addr(off), p)
}

func (e *kernelEnv) RequestIRQ(handler func()) error {
	e.charge(CostKernelAPICall)
	if e.irqSet {
		return fmt.Errorf("kernel: IRQ already requested for %s", e.dev.BDF())
	}
	v, err := e.k.M.Vec.Alloc()
	if err != nil {
		return err
	}
	e.vector = v
	// Program the device's MSI capability the way the kernel MSI core
	// does: address = MSI window, data = vector (or remap index).
	cfg := e.dev.Config()
	capOff := FindCapability(cfg, pci.CapIDMSI)
	if capOff == 0 {
		return fmt.Errorf("kernel: device %s has no MSI capability", e.dev.BDF())
	}
	data := uint32(v)
	if rt := e.k.M.IRQ.Remap; rt != nil {
		// With interrupt remapping, the message data indexes the remap
		// table; install an IRTE validated against this device.
		e.remapIx = uint8(v)
		rt.Set(e.remapIx, irq.IRTE{Valid: true, Source: e.dev.BDF(), Vector: v})
		data = uint32(e.remapIx)
	}
	cfg.Write(capOff+4, 4, uint32(iommu.MSIBase))
	cfg.Write(capOff+8, 2, data)
	cfg.Write(capOff+2, 2, pci.MSICtlEnable)

	k := e.k
	if err := k.M.IRQ.Register(v, func(irq.Vector) {
		k.Acct.Charge(sim.CostInterruptEntry)
		handler()
	}); err != nil {
		return err
	}
	e.irqSet = true
	return nil
}

func (e *kernelEnv) FreeIRQ() error {
	e.charge(CostKernelAPICall)
	if !e.irqSet {
		return fmt.Errorf("kernel: no IRQ requested")
	}
	if err := e.k.M.IRQ.Register(e.vector, nil); err != nil {
		return err
	}
	cfg := e.dev.Config()
	if capOff := FindCapability(cfg, pci.CapIDMSI); capOff != 0 {
		cfg.Write(capOff+2, 2, 0) // disable MSI
	}
	if rt := e.k.M.IRQ.Remap; rt != nil {
		rt.Set(e.remapIx, irq.IRTE{})
	}
	e.k.M.Vec.Free(e.vector)
	e.irqSet = false
	return nil
}

// IRQAck is a no-op for trusted drivers: the kernel never masked the MSI.
func (e *kernelEnv) IRQAck() {}

func (e *kernelEnv) RegisterNetDev(name string, macAddr [6]byte, dev api.NetDevice) (api.NetKernel, error) {
	e.charge(CostKernelAPICall)
	return e.k.Net.Register(name, macAddr, dev)
}

func (e *kernelEnv) Jiffies() uint64 { return e.k.Jiffies() }

// RegisterWifiDev implements api.EnvWifi: the trusted host registers the
// wireless interface directly, mirroring the feature set at registration.
func (e *kernelEnv) RegisterWifiDev(name string, macAddr [6]byte, dev api.WifiDevice) (api.WifiKernel, error) {
	e.charge(CostKernelAPICall)
	return e.k.Wifi.Register(name, macAddr, dev, dev.Features())
}

// RegisterSoundDev implements api.EnvAudio for the trusted host.
func (e *kernelEnv) RegisterSoundDev(name string, dev api.AudioDevice) (api.AudioKernel, error) {
	e.charge(CostKernelAPICall)
	return e.k.Audio.Register(name, dev)
}

// RegisterBlockDev implements api.EnvBlock for the trusted host: the block
// core hands back its per-queue completion surface directly.
func (e *kernelEnv) RegisterBlockDev(name string, geom api.BlockGeometry, dev api.BlockDevice) (api.BlockKernel, error) {
	e.charge(CostKernelAPICall)
	return e.k.Blk.Register(name, geom, dev)
}

func (e *kernelEnv) Timer(delayJiffies uint64, fn func()) {
	e.charge(CostKernelAPICall)
	k := e.k
	k.M.Loop.After(sim.Duration(delayJiffies)*(sim.Second/HZ), func() {
		k.Acct.Charge(CostKernelAPICall)
		fn()
	})
}

// Slice implements zero-copy access for kernelDMA.
func (b *kernelDMA) Slice(off, n int) ([]byte, bool) {
	if off < 0 || n <= 0 || off+n > b.size {
		return nil, false
	}
	return b.e.k.M.Mem.Slice(b.phys+mem.Addr(off), n)
}

func (e *kernelEnv) Logf(format string, args ...any) {
	e.k.Logf("["+e.name+"] "+format, args...)
}
