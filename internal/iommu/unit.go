package iommu

import (
	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/sim"
)

// iotlbEntry caches one translation. Entries are keyed by the issuing
// stream as well as the device, as PASID-tagged IOTLBs are: two streams of
// one device never alias each other's cached translations.
type iotlbEntry struct {
	bdf    pci.BDF
	stream int
	iova   mem.Addr
	pte    pte
}

// iotlbSize is the modelled IOTLB capacity in 4-KiB translations; evicted
// FIFO. Real VT-d IOTLBs are of this order.
const iotlbSize = 64

// queueKey addresses one per-queue sub-domain: the device plus the stream
// tag its hardware queue stamps on DMA (a PASID in real silicon).
type queueKey struct {
	bdf    pci.BDF
	stream int
}

// Unit is the DMA-remapping hardware unit at the root complex. All upstream
// TLPs pass through Translate before touching DRAM or the MSI window.
//
// Besides the per-device domain table, the unit holds per-(device, stream)
// sub-domains: when a TLP carries a non-zero stream tag and a sub-domain is
// attached for it, the walk uses ONLY that sub-domain — a descriptor naming
// a sibling queue's IOVA faults at the walk, which is the queue-granular
// confinement the per-queue recovery plane builds on. Streams without a
// sub-domain fall back to the device domain, so trusted in-kernel drivers
// (passthrough) and drivers predating the split behave exactly as before.
type Unit struct {
	Cfg   Config
	clock *sim.Clock

	domains map[pci.BDF]*Domain
	qdoms   map[queueKey]*Domain
	nextID  int

	tlb     []iotlbEntry
	tlbHit  uint64
	tlbMiss uint64

	faults []Fault
	// OnFault, if set, is called for every rejected translation (the
	// kernel's fault handler; SUD uses it to flag misbehaving drivers).
	OnFault func(Fault)

	walks uint64
}

// New returns a unit with no domains: DMA from a device without a domain is
// rejected (the safe default SUD needs; the trusted kernel attaches a
// pass-through domain for devices it drives itself).
func New(cfg Config, clock *sim.Clock) *Unit {
	return &Unit{
		Cfg:     cfg,
		clock:   clock,
		domains: make(map[pci.BDF]*Domain),
		qdoms:   make(map[queueKey]*Domain),
		tlb:     make([]iotlbEntry, 0, iotlbSize),
	}
}

// NewDomain allocates a fresh, empty domain.
func (u *Unit) NewDomain() *Domain {
	u.nextID++
	return NewDomain(u.nextID)
}

// Attach routes DMA from bdf through dom. Passing nil detaches the device,
// after which its DMA faults.
func (u *Unit) Attach(bdf pci.BDF, dom *Domain) {
	if dom == nil {
		delete(u.domains, bdf)
	} else {
		u.domains[bdf] = dom
	}
	u.InvalidateDevice(bdf)
}

// Domain returns the domain currently attached to bdf, or nil.
func (u *Unit) Domain(bdf pci.BDF) *Domain { return u.domains[bdf] }

// AttachQueue routes DMA stamped with stream from bdf through dom — the
// per-queue sub-domain attach. Passing nil detaches the sub-domain, after
// which the stream falls back to the device domain. Stream 0 (untagged DMA)
// cannot carry a sub-domain.
func (u *Unit) AttachQueue(bdf pci.BDF, stream int, dom *Domain) {
	if stream == 0 {
		return
	}
	k := queueKey{bdf: bdf, stream: stream}
	if dom == nil {
		delete(u.qdoms, k)
	} else {
		u.qdoms[k] = dom
	}
	u.InvalidateStream(bdf, stream)
}

// QueueDomains reports how many per-queue sub-domains bdf has attached.
func (u *Unit) QueueDomains(bdf pci.BDF) int {
	n := 0
	for k := range u.qdoms {
		if k.bdf == bdf {
			n++
		}
	}
	return n
}

// Translate maps (bdf, iova) to a physical address for untagged DMA.
func (u *Unit) Translate(bdf pci.BDF, iova mem.Addr, write bool) (mem.Addr, sim.Duration, error) {
	return u.TranslateQ(bdf, 0, iova, write)
}

// TranslateQ maps (bdf, stream, iova) to a physical address, enforcing
// permissions. A non-zero stream with an attached sub-domain walks that
// sub-domain exclusively; otherwise the device domain applies. The returned
// latency is device-side DMA engine time (IOTLB miss walk), not CPU time. A
// rejected translation is logged and reported to OnFault.
func (u *Unit) TranslateQ(bdf pci.BDF, stream int, iova mem.Addr, write bool) (mem.Addr, sim.Duration, error) {
	dom, ok := u.domains[bdf]
	if !ok {
		return 0, 0, u.faultQ(bdf, stream, iova, write, "no domain attached")
	}
	if qd, qok := u.qdoms[queueKey{bdf: bdf, stream: stream}]; qok {
		dom = qd
	}

	// Intel VT-d: implicit identity mapping for the MSI window in every
	// page table — it is "not possible to prevent this type of attack"
	// on hardware without interrupt remapping (§5.2). Per-queue
	// sub-domains inherit it: the window is in every page table.
	if u.Cfg.Vendor == VendorIntel && InMSIWindow(iova) {
		return iova, 0, nil
	}

	pageIOVA := mem.PageAlign(iova)
	// IOTLB lookup.
	for _, e := range u.tlb {
		if e.bdf == bdf && e.stream == stream && e.iova == pageIOVA {
			u.tlbHit++
			if err := checkPerm(e.pte.perm(), write); err != "" {
				return 0, 0, u.faultQ(bdf, stream, iova, write, err)
			}
			return e.pte.phys() + mem.Addr(mem.PageOffset(iova)), 0, nil
		}
	}
	u.tlbMiss++
	u.walks++
	entry, present := dom.walk(iova)
	if !present {
		return 0, sim.CostIOMMUWalk, u.faultQ(bdf, stream, iova, write, "not present in IO page table")
	}
	if err := checkPerm(entry.perm(), write); err != "" {
		return 0, sim.CostIOMMUWalk, u.faultQ(bdf, stream, iova, write, err)
	}
	// Insert into the IOTLB, FIFO eviction. The oldest entry is shifted
	// out in place, so the table never reallocates once full.
	if len(u.tlb) >= iotlbSize {
		n := copy(u.tlb, u.tlb[1:])
		u.tlb = u.tlb[:n]
	}
	u.tlb = append(u.tlb, iotlbEntry{bdf: bdf, stream: stream, iova: pageIOVA, pte: entry})
	return entry.phys() + mem.Addr(mem.PageOffset(iova)), sim.CostIOMMUWalk, nil
}

func checkPerm(p Perm, write bool) string {
	if write && p&PermWrite == 0 {
		return "write to read-only mapping"
	}
	if !write && p&PermRead == 0 {
		return "read of write-only mapping"
	}
	return ""
}

func (u *Unit) faultQ(bdf pci.BDF, stream int, iova mem.Addr, write bool, reason string) error {
	f := Fault{When: u.clock.Now(), BDF: bdf, Stream: stream, Addr: iova, Write: write, Reason: reason}
	u.faults = append(u.faults, f)
	if u.OnFault != nil {
		u.OnFault(f)
	}
	return f
}

// Invalidate drops the cached translation for one page of one device.
// The caller charges sim.CostIOTLBInvalidate; the paper found per-buffer
// invalidation "prohibitively expensive" (§3.1.2).
func (u *Unit) Invalidate(bdf pci.BDF, iova mem.Addr) {
	pageIOVA := mem.PageAlign(iova)
	out := u.tlb[:0]
	for _, e := range u.tlb {
		if !(e.bdf == bdf && e.iova == pageIOVA) {
			out = append(out, e)
		}
	}
	u.tlb = out
}

// RevokePage strips the page at iova from the device's domain — and from
// any per-queue sub-domain that maps it — in a single walk each, and drops
// every cached IOTLB translation for it, returning the physical page the
// mapping named. The walk cost (sim.CostPageFlipRevoke) and the
// batch-amortised shootdown (sim.CostIOTLBShootdown) are charged by the
// caller, which knows how many pages share one shootdown.
func (u *Unit) RevokePage(bdf pci.BDF, iova mem.Addr) (mem.Addr, bool) {
	dom, ok := u.domains[bdf]
	if !ok {
		return 0, false
	}
	page := mem.PageAlign(iova)
	phys, ok := dom.RevokePage(page)
	for k, qd := range u.qdoms {
		if k.bdf == bdf {
			if p, qok := qd.RevokePage(page); qok && !ok {
				phys, ok = p, true
			}
		}
	}
	if !ok {
		return 0, false
	}
	u.Invalidate(bdf, iova)
	return phys, true
}

// InvalidateDevice drops all cached translations for a device, every stream
// included (domain switch, driver restart).
func (u *Unit) InvalidateDevice(bdf pci.BDF) {
	out := u.tlb[:0]
	for _, e := range u.tlb {
		if e.bdf != bdf {
			out = append(out, e)
		}
	}
	u.tlb = out
}

// InvalidateStream drops all cached translations one stream of a device
// holds (sub-domain attach/revoke, queue quarantine).
func (u *Unit) InvalidateStream(bdf pci.BDF, stream int) {
	out := u.tlb[:0]
	for _, e := range u.tlb {
		if !(e.bdf == bdf && e.stream == stream) {
			out = append(out, e)
		}
	}
	u.tlb = out
}

// StreamFaults counts logged faults for one stream of a device — the
// per-queue breach evidence the supervisor's policy plane grades.
func (u *Unit) StreamFaults(bdf pci.BDF, stream int) uint64 {
	var n uint64
	for _, f := range u.faults {
		if f.BDF == bdf && f.Stream == stream {
			n++
		}
	}
	return n
}

// Faults returns the fault log.
func (u *Unit) Faults() []Fault { return u.faults }

// TLBStats returns IOTLB hit/miss counters.
func (u *Unit) TLBStats() (hits, misses uint64) { return u.tlbHit, u.tlbMiss }

// Walks returns the number of page-table walks performed.
func (u *Unit) Walks() uint64 { return u.walks }
