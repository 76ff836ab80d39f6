// Package pciaccess is SUD's safe PCI device access module (§3.2, §4.1): the
// kernel-side object standing in for the /sys/devices/.../sud/{ctl, mmio,
// dma_coherent, dma_caching} device files of Figure 6. It is the only path
// by which an untrusted driver process touches its device, and it enforces:
//
//   - driver-initiated confinement: page-aligned exclusive MMIO mappings, IO
//     port grants via the IOPB, and filtered PCI config space access (BARs
//     and the MSI capability are kernel-owned);
//   - device-initiated confinement: every DMA allocation is mapped into the
//     device's private IOMMU domain, so the device can reach exactly the
//     driver's own buffers (Figure 9); and
//   - interrupt policy: MSI programming is kernel-only, interrupts are
//     forwarded as upcalls, re-raised interrupts before acknowledgement are
//     masked, and interrupt storms are put down with the cheapest mechanism
//     the platform offers (MSI mask → remap-table disable → AMD MSI-page
//     unmap), per §3.2.2 and §6.
package pciaccess

import (
	"fmt"

	"sud/internal/flatmap"
	"sud/internal/iommu"
	"sud/internal/irq"
	"sud/internal/kernel"
	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/sim"
)

// IOVABase is where driver DMA mappings start in IO virtual address space.
// The value matches the layout the paper reports in Figure 9.
const IOVABase mem.Addr = 0x42430000

// ErrFiltered is returned for PCI config writes the module refuses.
var ErrFiltered = fmt.Errorf("pciaccess: access to protected register denied")

// Alloc describes one DMA allocation visible in the device's IO page table.
// Stream names the hardware queue that owns the allocation (the tag that
// queue's engine stamps on its DMA): a non-zero stream maps the pages ONLY
// into that queue's sub-domain, so a sibling queue's descriptor naming them
// faults at the walk. Stream 0 is a shared allocation in the device domain,
// reachable by untagged DMA and by streams without a sub-domain.
type Alloc struct {
	Label    string
	IOVA     mem.Addr
	Phys     mem.Addr
	Pages    int
	Coherent bool
	Stream   int
}

// DeviceFile is the per-device, per-driver-process handle.
type DeviceFile struct {
	K    *kernel.Kernel
	Dev  pci.Device
	Dom  *iommu.Domain
	UID  int
	Acct *sim.CPUAccount // the driver process's CPU account

	// MaxDMAPages is the setrlimit-style cap on DMA memory (§4.1);
	// 0 means unlimited.
	MaxDMAPages int

	nextIOVA  mem.Addr
	allocs    []*Alloc
	usedPages int

	// Per-stream sub-domains: the queue-granular half of the DMA split.
	// qdoms holds the translation table each tagged queue walks;
	// quarantined marks streams whose sub-domain has been revoked (an
	// empty blocked domain is attached in its place, so the breached
	// queue's DMA faults instead of falling back to the device domain).
	qdoms       map[int]*iommu.Domain
	quarantined map[int]bool

	// revoked tracks pages the kernel has flipped to itself (page-flip
	// guard, §3.1.2 amortised): pageIOVA -> phys. While a page is here the
	// device cannot DMA to it (the PTE is gone) and the driver process's
	// window onto it is closed — ValidateRange/PhysFor refuse references
	// into it and driver-side stores through the UML DMA API fault.
	revoked flatmap.Map[mem.Addr, mem.Addr]

	vector       irq.Vector
	irqRequested bool
	upcall       func() // interrupt upcall into the driver process

	ackPending         bool
	maskedWhilePending bool
	stormed            bool
	attached           bool

	// Counters for the security evaluation.
	FilteredConfigWrites uint64
	InterruptUpcalls     uint64
	MasksWhilePending    uint64
	StormResponses       uint64
	// RevokedFaults counts driver-side touches (loads, stores, shared-
	// buffer references, DMA retargets) of pages the kernel has revoked —
	// the page-flip equivalent of an IOMMU fault, attributed to this
	// driver as evidence for the policy plane.
	RevokedFaults uint64
	// QueueRevokes/QueueRearms count per-queue DMA quarantine transitions
	// (surgical recovery evidence for sudctl and the supervisor).
	QueueRevokes uint64
	QueueRearms  uint64

	closed bool
}

// Open creates the device files for dev, owned by uid, charging driver CPU
// to acct. A fresh, empty IOMMU domain is attached: from this instant the
// device can DMA nowhere until the driver allocates buffers.
func Open(k *kernel.Kernel, dev pci.Device, uid int, acct *sim.CPUAccount) *DeviceFile {
	df := OpenDetached(k, dev, uid, acct)
	df.AttachDevice()
	return df
}

// OpenDetached creates the device files and the process's IOMMU domain but
// leaves the device attached to whatever domain it already has. This is the
// hot-standby path: the standby builds its DMA mappings (slot pools, ring
// buffers) in its own domain while the live primary still owns the device's
// bus identity; AttachDevice completes the switch at promotion, after the
// primary is dead and detached.
func OpenDetached(k *kernel.Kernel, dev pci.Device, uid int, acct *sim.CPUAccount) *DeviceFile {
	df := &DeviceFile{
		K:        k,
		Dev:      dev,
		Dom:      k.M.IOMMU.NewDomain(),
		UID:      uid,
		Acct:     acct,
		nextIOVA: IOVABase,
	}
	// AMD IOMMUs have no implicit MSI mapping; the kernel maps the MSI
	// window so the device's own interrupts work (§6 — and unmaps it
	// again to silence a storm).
	if k.M.IOMMU.Cfg.Vendor == iommu.VendorAMD {
		if err := df.Dom.MapRange(iommu.MSIBase, iommu.MSIBase,
			uint64(iommu.MSILimit-iommu.MSIBase), iommu.PermWrite); err != nil {
			panic(err) // fresh domain; cannot collide
		}
	}
	return df
}

// AttachDevice points the device's bus identity at this process's IOMMU
// domain — and every per-queue sub-domain built so far (the detached-standby
// path allocates queue-tagged rings before promotion). Idempotent; no-op
// after Close.
func (df *DeviceFile) AttachDevice() {
	if df.closed || df.attached {
		return
	}
	df.K.M.IOMMU.Attach(df.Dev.BDF(), df.Dom)
	df.attached = true
	for stream, dom := range df.qdoms {
		df.K.M.IOMMU.AttachQueue(df.Dev.BDF(), stream, dom)
	}
}

func (df *DeviceFile) syscall(extra sim.Duration) {
	df.Acct.Charge(sim.CostSyscall + extra)
}

// --- DMA memory (dma_coherent / dma_caching) -------------------------------

// AllocDMA allocates size bytes of DMA-capable memory, maps it at the next
// IO virtual address in the device's domain, and returns the allocation.
// Under SUD the driver's virtual address equals the IOVA (§4.1).
func (df *DeviceFile) AllocDMA(size int, label string, coherent bool) (*Alloc, error) {
	return df.AllocDMAQ(size, label, coherent, 0)
}

// AllocDMAQ is AllocDMA scoped to one hardware queue: stream is the tag the
// queue's engine stamps on its DMA, and the pages are mapped ONLY into that
// stream's sub-domain (lazily created and attached). IOVAs still come from
// the device file's single address space, so the driver-side window and
// range validation are queue-agnostic — only the device-side walk is split.
// stream 0 degrades to a shared device-domain allocation.
func (df *DeviceFile) AllocDMAQ(size int, label string, coherent bool, stream int) (*Alloc, error) {
	df.syscall(0)
	if df.closed {
		return nil, fmt.Errorf("pciaccess: device file closed")
	}
	if size <= 0 {
		return nil, fmt.Errorf("pciaccess: bad DMA size %d", size)
	}
	if stream < 0 {
		return nil, fmt.Errorf("pciaccess: bad stream %d", stream)
	}
	pages := (size + mem.PageSize - 1) / mem.PageSize
	if df.MaxDMAPages > 0 && df.usedPages+pages > df.MaxDMAPages {
		return nil, fmt.Errorf("pciaccess: DMA rlimit exceeded (%d+%d > %d pages)",
			df.usedPages, pages, df.MaxDMAPages)
	}
	phys, ok := df.K.M.Alloc.AllocPages(pages)
	if !ok {
		return nil, fmt.Errorf("pciaccess: out of physical memory")
	}
	a := &Alloc{Label: label, IOVA: df.nextIOVA, Phys: phys, Pages: pages, Coherent: coherent, Stream: stream}
	if err := df.queueDom(stream).MapRange(a.IOVA, a.Phys, uint64(pages)*mem.PageSize, iommu.PermRW); err != nil {
		df.K.M.Alloc.FreePages(phys, pages)
		return nil, err
	}
	df.nextIOVA += mem.Addr(pages) * mem.PageSize
	df.usedPages += pages
	df.allocs = append(df.allocs, a)
	return a, nil
}

// queueDom returns the translation table stream's allocations map into,
// creating and attaching the sub-domain on first use. Stream 0 is the
// device domain.
func (df *DeviceFile) queueDom(stream int) *iommu.Domain {
	if stream == 0 {
		return df.Dom
	}
	if dom, ok := df.qdoms[stream]; ok {
		return dom
	}
	dom := df.K.M.IOMMU.NewDomain()
	// Same vendor asymmetry as the device domain: AMD needs an explicit
	// MSI-window mapping for the queue's completion interrupts.
	if df.K.M.IOMMU.Cfg.Vendor == iommu.VendorAMD {
		if err := dom.MapRange(iommu.MSIBase, iommu.MSIBase,
			uint64(iommu.MSILimit-iommu.MSIBase), iommu.PermWrite); err != nil {
			panic(err) // fresh domain; cannot collide
		}
	}
	if df.qdoms == nil {
		df.qdoms = make(map[int]*iommu.Domain)
	}
	df.qdoms[stream] = dom
	// A detached standby defers the attach to promotion — the live
	// primary still owns the device's bus identity.
	if df.attached && !df.quarantined[stream] {
		df.K.M.IOMMU.AttachQueue(df.Dev.BDF(), stream, dom)
	}
	return dom
}

// domFor returns the translation table holding a's pages.
func (df *DeviceFile) domFor(a *Alloc) *iommu.Domain {
	if a.Stream != 0 {
		if dom, ok := df.qdoms[a.Stream]; ok {
			return dom
		}
	}
	return df.Dom
}

// FreeDMA unmaps and releases an allocation, invalidating stale IOTLB
// entries (charged at the documented cost, §3.1.2).
func (df *DeviceFile) FreeDMA(a *Alloc) error {
	df.syscall(sim.CostIOTLBInvalidate)
	for i, cur := range df.allocs {
		if cur == a {
			df.domFor(a).UnmapRange(a.IOVA, uint64(a.Pages)*mem.PageSize)
			df.K.M.IOMMU.InvalidateDevice(df.Dev.BDF())
			df.K.M.Alloc.FreePages(a.Phys, a.Pages)
			df.usedPages -= a.Pages
			df.allocs = append(df.allocs[:i], df.allocs[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("pciaccess: unknown DMA allocation")
}

// --- per-queue DMA quarantine (surgical recovery) ----------------------------

// RevokeQueueDMA kills one queue's DMA: an empty blocked domain replaces the
// stream's sub-domain at the IOMMU (attach + stream shootdown), so every
// further access the breached queue's engine issues faults at the walk —
// including to shared stream-0 pages it could otherwise still reach —
// while sibling queues' sub-domains stay armed and serving. The sub-domain's
// mappings are kept; RearmQueueDMA re-attaches them after replay.
func (df *DeviceFile) RevokeQueueDMA(stream int) error {
	df.K.Acct.Charge(sim.CostIOTLBInvalidate)
	if df.closed {
		return fmt.Errorf("pciaccess: device file closed")
	}
	if stream <= 0 {
		return fmt.Errorf("pciaccess: bad stream %d", stream)
	}
	if df.quarantined[stream] {
		return nil // idempotent: double-quarantine is a no-op
	}
	if df.quarantined == nil {
		df.quarantined = make(map[int]bool)
	}
	df.quarantined[stream] = true
	df.QueueRevokes++
	if df.attached {
		df.K.M.IOMMU.AttachQueue(df.Dev.BDF(), stream, df.K.M.IOMMU.NewDomain())
	}
	return nil
}

// RearmQueueDMA reverses RevokeQueueDMA: the stream's real sub-domain (with
// its mappings intact) is re-attached and its IOTLB footprint shot down, so
// the recovered queue incarnation resumes with exactly the translations its
// allocations installed.
func (df *DeviceFile) RearmQueueDMA(stream int) error {
	df.K.Acct.Charge(sim.CostIOTLBInvalidate)
	if df.closed {
		return fmt.Errorf("pciaccess: device file closed")
	}
	if !df.quarantined[stream] {
		return fmt.Errorf("pciaccess: stream %d is not quarantined", stream)
	}
	delete(df.quarantined, stream)
	df.QueueRearms++
	if df.attached {
		dom := df.qdoms[stream]
		if dom == nil {
			df.K.M.IOMMU.AttachQueue(df.Dev.BDF(), stream, nil)
		} else {
			df.K.M.IOMMU.AttachQueue(df.Dev.BDF(), stream, dom)
		}
	}
	return nil
}

// QueueQuarantined reports whether stream's DMA is currently revoked.
func (df *DeviceFile) QueueQuarantined(stream int) bool { return df.quarantined[stream] }

// QueueStreams returns the streams with a per-queue sub-domain, ascending
// (sudctl introspection).
func (df *DeviceFile) QueueStreams() []int {
	var out []int
	for s := range df.qdoms {
		out = append(out, s)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Allocs returns the live allocations (the Figure 9 walk labels mappings
// with these).
func (df *DeviceFile) Allocs() []*Alloc { return df.allocs }

// Mappings walks the device's full translation state — the shared device
// domain plus every per-queue sub-domain — and returns the merged list
// sorted by IOVA. This is the Figure 9 page-directory walk: with the
// per-queue split, a single domain no longer tells the whole story.
func (df *DeviceFile) Mappings() []iommu.Mapping {
	out := df.Dom.Mappings()
	for _, s := range df.QueueStreams() {
		out = append(out, df.qdoms[s].Mappings()...)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].IOVA < out[j-1].IOVA; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ValidateRange reports whether [iova, iova+n) lies entirely inside one of
// the driver's DMA allocations. Proxy drivers use it to reject shared-buffer
// references a malicious driver points at memory it does not own. A range
// overlapping a revoked page is rejected too — the driver no longer owns
// that page — and the attempt is recorded as revoked-page evidence.
func (df *DeviceFile) ValidateRange(iova mem.Addr, n int) bool {
	if n <= 0 {
		return false
	}
	for _, a := range df.allocs {
		end := a.IOVA + mem.Addr(a.Pages)*mem.PageSize
		if iova >= a.IOVA && iova+mem.Addr(n) <= end {
			if df.rangeRevoked(iova, n) {
				df.RevokedFaults++
				return false
			}
			return true
		}
	}
	return false
}

// PhysFor translates a validated IOVA to its physical address. Revoked pages
// do not translate: the driver's claim to them ended at the flip.
func (df *DeviceFile) PhysFor(iova mem.Addr) (mem.Addr, bool) {
	if df.PageRevoked(iova) {
		df.RevokedFaults++
		return 0, false
	}
	for _, a := range df.allocs {
		end := a.IOVA + mem.Addr(a.Pages)*mem.PageSize
		if iova >= a.IOVA && iova < end {
			return a.Phys + (iova - a.IOVA), true
		}
	}
	return 0, false
}

// --- page-flip ownership transfer (§3.1.2 amortised guard) -------------------

// RevokePage flips ownership of the 4-KiB page containing iova from the
// driver to the kernel: the PTE is cleared in a single walk and the IOTLB
// entry dropped, so the device faults on any further DMA to it and the driver
// process's accesses through the DMA API fault as evidence. The physical page
// is returned so the proxy can deliver its contents by reference. The caller
// charges sim.CostPageFlipRevoke per page and amortises one
// sim.CostIOTLBShootdown over the batch.
func (df *DeviceFile) RevokePage(iova mem.Addr) (mem.Addr, error) {
	if df.closed {
		return 0, fmt.Errorf("pciaccess: device file closed")
	}
	page := mem.PageAlign(iova)
	if df.revoked.Has(page) {
		return 0, fmt.Errorf("pciaccess: page %#x already revoked", uint64(page))
	}
	owned := false
	for _, a := range df.allocs {
		end := a.IOVA + mem.Addr(a.Pages)*mem.PageSize
		if page >= a.IOVA && page < end {
			owned = true
			break
		}
	}
	if !owned {
		return 0, fmt.Errorf("pciaccess: page %#x not in any DMA allocation", uint64(page))
	}
	phys, ok := df.K.M.IOMMU.RevokePage(df.Dev.BDF(), page)
	if !ok {
		// Detached or already-stripped domain (e.g. recovery tore the
		// mapping down first): nothing to flip.
		return 0, fmt.Errorf("pciaccess: page %#x not mapped", uint64(page))
	}
	df.revoked.Put(page, phys)
	return phys, nil
}

// RecyclePage reverses a RevokePage: the PTE is re-installed (walk + entry
// write; no invalidation — absent to present) and the driver may fill the
// page again. The mapping returns to the page's home translation table —
// the owning queue's sub-domain for a queue-tagged allocation, the device
// domain otherwise. The caller charges sim.CostPageRecycleMap.
func (df *DeviceFile) RecyclePage(iova mem.Addr) error {
	if df.closed {
		return fmt.Errorf("pciaccess: device file closed")
	}
	page := mem.PageAlign(iova)
	phys, ok := df.revoked.Get(page)
	if !ok {
		return fmt.Errorf("pciaccess: page %#x is not revoked", uint64(page))
	}
	dom := df.Dom
	for _, a := range df.allocs {
		end := a.IOVA + mem.Addr(a.Pages)*mem.PageSize
		if page >= a.IOVA && page < end {
			dom = df.domFor(a)
			break
		}
	}
	if err := dom.Map(page, phys, iommu.PermRW); err != nil {
		return err
	}
	df.revoked.Delete(page)
	return nil
}

// PageRevoked reports whether the page containing iova is currently flipped
// to the kernel.
func (df *DeviceFile) PageRevoked(iova mem.Addr) bool {
	return df.revoked.Has(mem.PageAlign(iova))
}

// RevokedPages returns the number of pages currently flipped to the kernel.
func (df *DeviceFile) RevokedPages() int { return df.revoked.Len() }

func (df *DeviceFile) rangeRevoked(iova mem.Addr, n int) bool {
	if df.revoked.Len() == 0 {
		return false
	}
	for p := mem.PageAlign(iova); p < iova+mem.Addr(n); p += mem.PageSize {
		if df.revoked.Has(p) {
			return true
		}
	}
	return false
}

// DriverTouch models the untrusted driver process loading or storing through
// its shared DMA window at iova. On a live page it translates and succeeds;
// on a revoked page the process's mapping is gone, so the access faults and
// is recorded as evidence. Attack harnesses and the UML DMA shims route
// driver-side accesses here so the page-flip confinement is honest.
func (df *DeviceFile) DriverTouch(iova mem.Addr, n int, write bool) (mem.Addr, error) {
	if df.closed {
		return 0, fmt.Errorf("pciaccess: device file closed")
	}
	if df.rangeRevoked(iova, n) {
		df.RevokedFaults++
		op := "load from"
		if write {
			op = "store to"
		}
		return 0, fmt.Errorf("pciaccess: driver %s revoked page %#x", op, uint64(mem.PageAlign(iova)))
	}
	phys, ok := df.PhysFor(iova)
	if !ok {
		return 0, fmt.Errorf("pciaccess: %#x not mapped", uint64(iova))
	}
	return phys, nil
}

// --- MMIO and IO ports ------------------------------------------------------

// MapMMIO maps memory BAR bar into the driver process. SUD requires the
// range to be page-aligned and not shared with any other device (§3.2.1).
func (df *DeviceFile) MapMMIO(bar int) (*MMIOMap, error) {
	df.syscall(0)
	base, info := df.Dev.Config().BAR(bar)
	if info.Size == 0 || info.IO {
		return nil, fmt.Errorf("pciaccess: BAR %d is not a memory BAR", bar)
	}
	if base%mem.PageSize != 0 || info.Size%mem.PageSize != 0 {
		return nil, fmt.Errorf("pciaccess: BAR %d (%#x+%#x) not page-aligned", bar, base, info.Size)
	}
	return &MMIOMap{df: df, bar: bar}, nil
}

// MMIOMap is a driver-process mapping of a memory BAR. Accesses cost the
// same as kernel MMIO (it is the same uncached load/store) but are charged
// to the driver process.
type MMIOMap struct {
	df  *DeviceFile
	bar int
}

// Read32 reads a device register.
func (m *MMIOMap) Read32(off uint64) uint32 {
	m.df.Acct.Charge(sim.CostMMIORead)
	return uint32(m.df.Dev.MMIORead(m.bar, off, 4))
}

// Write32 writes a device register.
func (m *MMIOMap) Write32(off uint64, v uint32) {
	m.df.Acct.Charge(sim.CostMMIOWrite)
	m.df.Dev.MMIOWrite(m.bar, off, 4, uint64(v))
}

// IOPorts grants the driver process access to IO BAR bar via the task's IO
// permission bitmap (§3.2.1) and returns the accessor.
type IOPorts struct {
	df  *DeviceFile
	bar int
}

// RequestIOPorts implements the request_region downcall.
func (df *DeviceFile) RequestIOPorts(bar int) (*IOPorts, error) {
	df.syscall(0)
	_, info := df.Dev.Config().BAR(bar)
	if info.Size == 0 || !info.IO {
		return nil, fmt.Errorf("pciaccess: BAR %d is not an IO BAR", bar)
	}
	return &IOPorts{df: df, bar: bar}, nil
}

// In8 reads a byte port (direct, via IOPB — no syscall per access).
func (p *IOPorts) In8(off uint64) uint8 {
	p.df.Acct.Charge(sim.CostIOPort)
	return uint8(p.df.Dev.IORead(p.bar, off, 1))
}

// Out8 writes a byte port.
func (p *IOPorts) Out8(off uint64, v uint8) {
	p.df.Acct.Charge(sim.CostIOPort)
	p.df.Dev.IOWrite(p.bar, off, 1, uint32(v))
}

// In16 reads a word port.
func (p *IOPorts) In16(off uint64) uint16 {
	p.df.Acct.Charge(sim.CostIOPort)
	return uint16(p.df.Dev.IORead(p.bar, off, 2))
}

// Out16 writes a word port.
func (p *IOPorts) Out16(off uint64, v uint16) {
	p.df.Acct.Charge(sim.CostIOPort)
	p.df.Dev.IOWrite(p.bar, off, 2, uint32(v))
}

// --- PCI configuration space (filtered) --------------------------------------

// ConfigRead is unrestricted: reads cannot break confinement.
func (df *DeviceFile) ConfigRead(off, size int) (uint32, error) {
	df.syscall(sim.CostPCIConfig)
	if df.closed {
		return 0xFFFFFFFF, fmt.Errorf("pciaccess: device file closed")
	}
	return df.Dev.Config().Read(off, size), nil
}

// ConfigWrite filters writes: a malicious driver must not move BARs (that
// would alias another device's registers), reprogram MSI (interrupt routing
// is kernel-owned), or touch the capability chain (§3.2.1).
func (df *DeviceFile) ConfigWrite(off, size int, v uint32) error {
	df.syscall(sim.CostPCIConfig)
	if df.closed {
		return fmt.Errorf("pciaccess: device file closed")
	}
	if !df.configWriteAllowed(off, size, &v) {
		df.FilteredConfigWrites++
		return ErrFiltered
	}
	df.Dev.Config().Write(off, size, v)
	return nil
}

func (df *DeviceFile) configWriteAllowed(off, size int, v *uint32) bool {
	end := off + size
	// BARs are kernel-owned.
	if off < pci.CfgBAR0+24 && end > pci.CfgBAR0 {
		return false
	}
	// Capability pointer and the MSI capability are kernel-owned.
	if off <= pci.CfgCapPtr && end > pci.CfgCapPtr {
		return false
	}
	if msi := df.Dev.Config().MSICapOffset(); msi != 0 && off < msi+pci.MSICapSize && end > msi {
		return false
	}
	// The command register may only toggle decode/bus-master bits; the
	// interrupt-disable bit stays kernel-owned.
	if off <= pci.CfgCommand+1 && end > pci.CfgCommand {
		allowed := uint32(pci.CmdIOSpace | pci.CmdMemSpace | pci.CmdBusMaster)
		*v &= allowed
		return true
	}
	return true
}

// --- Interrupts ---------------------------------------------------------------

// RequestIRQ allocates a vector, programs the device's MSI capability (the
// driver cannot — the capability is filtered), and forwards interrupts to
// the driver process via upcall.
func (df *DeviceFile) RequestIRQ(upcall func()) error {
	df.syscall(sim.CostPCIConfig)
	if df.irqRequested {
		return fmt.Errorf("pciaccess: IRQ already requested")
	}
	v, err := df.K.M.Vec.Alloc()
	if err != nil {
		return err
	}
	df.vector = v
	df.upcall = upcall

	cfg := df.Dev.Config()
	capOff := kernel.FindCapability(cfg, pci.CapIDMSI)
	if capOff == 0 {
		return fmt.Errorf("pciaccess: device has no MSI capability")
	}
	data := uint32(v)
	if rt := df.K.M.IRQ.Remap; rt != nil {
		rt.Set(uint8(v), irq.IRTE{Valid: true, Source: df.Dev.BDF(), Vector: v})
	}
	cfg.Write(capOff+4, 4, uint32(iommu.MSIBase))
	cfg.Write(capOff+8, 2, data)
	cfg.Write(capOff+2, 2, pci.MSICtlEnable)

	k := df.K
	if err := k.M.IRQ.Register(v, func(irq.Vector) {
		k.Acct.Charge(sim.CostInterruptEntry)
		df.onInterrupt()
	}); err != nil {
		return err
	}
	k.RegisterStormHandler(v, df.stormResponse)
	df.irqRequested = true
	return nil
}

// onInterrupt implements the §3.2.2 policy: forward the first interrupt as
// an upcall without masking (MSIs are edge-triggered); if another arrives
// before the driver acknowledges, mask the MSI so an unresponsive driver
// cannot be pinned down by its device.
func (df *DeviceFile) onInterrupt() {
	if df.closed {
		return
	}
	if df.ackPending {
		df.MasksWhilePending++
		df.maskedWhilePending = true
		df.K.Acct.Charge(sim.CostMSIMask)
		df.Dev.Config().SetMSIMasked(true)
		return
	}
	df.ackPending = true
	df.InterruptUpcalls++
	if df.upcall != nil {
		df.upcall()
	}
}

// Ack is the interrupt_ack downcall (Figure 7): the driver finished its
// handler; unmask if we masked.
func (df *DeviceFile) Ack() {
	df.Acct.Charge(sim.CostSyscall)
	df.ackPending = false
	if df.maskedWhilePending {
		df.maskedWhilePending = false
		df.K.Acct.Charge(sim.CostMSIMask)
		df.Dev.Config().SetMSIMasked(false)
	}
}

// stormResponse runs when the interrupt controller flags a storm on our
// vector. Per §3.2.2/§6: masking the MSI capability silences a devicely
// raised storm; a DMA-write storm needs the remap table (Intel) or
// unmapping the MSI page (AMD). On the paper's test machine — Intel without
// interrupt remapping — the DMA storm cannot be stopped (§5.2).
func (df *DeviceFile) stormResponse(rate int) {
	if df.closed || df.stormed {
		return
	}
	df.StormResponses++
	k := df.K
	// First line of defence: mask the device's MSI.
	k.Acct.Charge(sim.CostMSIMask)
	df.Dev.Config().SetMSIMasked(true)

	switch {
	case k.M.IRQ.Remap != nil:
		// Intel with interrupt remapping: invalidate the IRTE,
		// stopping even DMA-generated messages.
		k.Acct.Charge(sim.CostIRTEUpdate)
		k.M.IRQ.Remap.Set(uint8(df.vector), irq.IRTE{})
		df.stormed = true
	case k.M.IOMMU.Cfg.Vendor == iommu.VendorAMD:
		// AMD: unmap the MSI window from this device's IO page table.
		df.Dom.UnmapRange(iommu.MSIBase, uint64(iommu.MSILimit-iommu.MSIBase))
		k.M.IOMMU.InvalidateDevice(df.Dev.BDF())
		k.Acct.Charge(sim.CostIOTLBInvalidate)
		df.stormed = true
	default:
		// Intel without remapping: the MSI mask stops the device's own
		// messages, but a stray-DMA storm keeps coming (§5.2).
		k.Logf("pciaccess: interrupt storm on %s (rate %d); cannot block DMA-generated MSIs without interrupt remapping",
			df.Dev.BDF(), rate)
	}
}

// Stormed reports whether storm suppression has fired.
func (df *DeviceFile) Stormed() bool { return df.stormed }

// Vector returns the allocated interrupt vector.
func (df *DeviceFile) Vector() irq.Vector { return df.vector }

// FreeIRQ releases the interrupt.
func (df *DeviceFile) FreeIRQ() error {
	df.syscall(sim.CostPCIConfig)
	if !df.irqRequested {
		return fmt.Errorf("pciaccess: no IRQ requested")
	}
	df.teardownIRQ()
	return nil
}

func (df *DeviceFile) teardownIRQ() {
	if !df.irqRequested {
		return
	}
	_ = df.K.M.IRQ.Register(df.vector, nil)
	df.K.RegisterStormHandler(df.vector, nil)
	if rt := df.K.M.IRQ.Remap; rt != nil {
		rt.Set(uint8(df.vector), irq.IRTE{})
	}
	cfg := df.Dev.Config()
	if capOff := kernel.FindCapability(cfg, pci.CapIDMSI); capOff != 0 {
		cfg.Write(capOff+2, 2, 0)
	}
	// The vector goes back to the kernel, so a driver killed and
	// restarted any number of times never runs the machine out of vectors.
	df.K.M.Vec.Free(df.vector)
	df.irqRequested = false
}

// --- device delegation (§6) -----------------------------------------------------

// DelegateMMIO grants this driver's device DMA access to another device's
// memory BAR — the §6 "device delegation" direction: a bus-driver process
// can hand a function's registers to a per-device driver process, or a
// multi-queue NIC can expose one queue directly to an application. The
// grant is an explicit identity mapping in this device's IOMMU domain;
// with ACS, the DMA is redirected through the root complex, translated, and
// delivered to the target BAR.
//
// Only the kernel (administrator) may call this; it is not reachable from
// the untrusted driver's syscall surface.
func (df *DeviceFile) DelegateMMIO(target pci.Device, bar int) error {
	if df.closed {
		return fmt.Errorf("pciaccess: device file closed")
	}
	base, info := target.Config().BAR(bar)
	if info.Size == 0 || info.IO {
		return fmt.Errorf("pciaccess: target BAR %d is not a memory BAR", bar)
	}
	if base%mem.PageSize != 0 || info.Size%mem.PageSize != 0 {
		return fmt.Errorf("pciaccess: target BAR %d not page-aligned", bar)
	}
	if err := df.Dom.MapRange(mem.Addr(base), mem.Addr(base), info.Size, iommu.PermRW); err != nil {
		return err
	}
	df.K.Logf("pciaccess: delegated %s BAR%d (%#x+%#x) to driver of %s",
		target.BDF(), bar, base, info.Size, df.Dev.BDF())
	return nil
}

// RevokeDelegation removes a DelegateMMIO grant.
func (df *DeviceFile) RevokeDelegation(target pci.Device, bar int) error {
	if df.closed {
		return fmt.Errorf("pciaccess: device file closed")
	}
	base, info := target.Config().BAR(bar)
	if info.Size == 0 || info.IO {
		return fmt.Errorf("pciaccess: target BAR %d is not a memory BAR", bar)
	}
	df.Dom.UnmapRange(mem.Addr(base), info.Size)
	df.K.M.IOMMU.InvalidateDevice(df.Dev.BDF())
	df.K.Acct.Charge(sim.CostIOTLBInvalidate)
	return nil
}

// --- teardown -----------------------------------------------------------------

// Close tears everything down: the driver process died or was killed. The
// IOMMU domain is detached, so any DMA the device still attempts faults; all
// DMA memory is reclaimed — the "kill -9 and restart" story of §4.1.
func (df *DeviceFile) Close() {
	if df.closed {
		return
	}
	df.closed = true
	df.teardownIRQ()
	for _, a := range df.allocs {
		// UnmapRange tolerates pages already absent from the page table,
		// so allocations with in-flight revoked (flipped) pages tear down
		// cleanly; every physical page — flipped or not — is reclaimed
		// here, which is what makes kill -9 mid page-flip leak-free.
		df.domFor(a).UnmapRange(a.IOVA, uint64(a.Pages)*mem.PageSize)
		df.K.M.Alloc.FreePages(a.Phys, a.Pages)
	}
	df.allocs = nil
	df.usedPages = 0
	df.revoked = flatmap.Map[mem.Addr, mem.Addr]{}
	if df.attached {
		// Only the domain owner detaches the bus identity: a never-promoted
		// standby closing must not rip the attachment out from under the
		// live primary. Sub-domains (quarantine placeholders included) go
		// with it.
		for stream := range df.qdoms {
			df.K.M.IOMMU.AttachQueue(df.Dev.BDF(), stream, nil)
		}
		for stream := range df.quarantined {
			df.K.M.IOMMU.AttachQueue(df.Dev.BDF(), stream, nil)
		}
		df.K.M.IOMMU.Attach(df.Dev.BDF(), nil)
		df.attached = false
	}
	df.qdoms = nil
	df.quarantined = nil
	df.K.M.IOMMU.InvalidateDevice(df.Dev.BDF())
}

// Closed reports teardown.
func (df *DeviceFile) Closed() bool { return df.closed }
