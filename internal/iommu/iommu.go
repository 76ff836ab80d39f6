// Package iommu models the DMA-remapping hardware SUD uses to confine
// device-initiated memory operations (§3.2.2): per-device IO page tables with
// an explicit two-level walk over 8-byte entries in VT-d's second-level
// layout (a leaf is one 4-KiB page, built when a domain first maps into its
// 2-MiB region), an IOTLB, a fault log, and the vendor asymmetry
// the paper's security evaluation turns on — Intel VT-d carries an implicit
// identity mapping for the MSI address window in every page table (so a
// malicious driver can always DMA to the MSI region, §5.2), while AMD's IOMMU
// does not (so unmapping the MSI page stops interrupt storms, §6).
package iommu

import (
	"fmt"
	"sort"

	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/sim"
)

// The x86 MSI address window. Writes landing here (after translation) are
// interrupt messages, not DRAM traffic.
const (
	MSIBase  mem.Addr = 0xFEE00000
	MSILimit mem.Addr = 0xFEF00000
)

// InMSIWindow reports whether a translated physical address is an MSI write.
func InMSIWindow(a mem.Addr) bool { return a >= MSIBase && a < MSILimit }

// Perm is a mapping permission mask.
type Perm uint8

const (
	// PermRead allows device reads (DMA from memory to device).
	PermRead Perm = 1 << 0
	// PermWrite allows device writes (DMA from device to memory).
	PermWrite Perm = 1 << 1
	// PermRW allows both.
	PermRW = PermRead | PermWrite
)

func (p Perm) String() string {
	switch p {
	case PermRead:
		return "r-"
	case PermWrite:
		return "-w"
	case PermRW:
		return "rw"
	default:
		return "--"
	}
}

// Vendor selects the modelled IOMMU implementation.
type Vendor int

const (
	// VendorIntel models Intel VT-d: implicit MSI identity mapping in
	// every domain; interrupt remapping if the chipset supports it.
	VendorIntel Vendor = iota
	// VendorAMD models AMD's IOMMU: no implicit MSI mapping.
	VendorAMD
)

func (v Vendor) String() string {
	if v == VendorAMD {
		return "AMD"
	}
	return "Intel VT-d"
}

// Config describes the platform's IOMMU capabilities.
type Config struct {
	Vendor Vendor
	// InterruptRemapping reports whether the chipset supports VT-d
	// interrupt remapping. The paper's test machine did not (§5.2),
	// leaving it vulnerable to MSI-window DMA livelock.
	InterruptRemapping bool
}

// Fault is one rejected DMA translation. Stream is the PASID-like queue tag
// the TLP carried (0 = untagged): with per-queue sub-domains attached it
// names the hardware queue whose descriptor caused the fault, which is what
// lets the supervisor quarantine a single queue instead of the process.
type Fault struct {
	When   sim.Time
	BDF    pci.BDF
	Stream int
	Addr   mem.Addr
	Write  bool
	Reason string
}

func (f Fault) Error() string {
	op := "read"
	if f.Write {
		op = "write"
	}
	if f.Stream != 0 {
		return fmt.Sprintf("iommu: DMA %s fault: device %s stream %d, IO virtual address %#x: %s",
			op, f.BDF, f.Stream, uint64(f.Addr), f.Reason)
	}
	return fmt.Sprintf("iommu: DMA %s fault: device %s, IO virtual address %#x: %s",
		op, f.BDF, uint64(f.Addr), f.Reason)
}

// Two-level IO page table geometry: the top level indexes 2 MiB regions,
// each leaf maps 512 4-KiB pages.
const leafEntries = 512

// pte is one leaf entry in the layout of Intel VT-d's second-level
// page-table entry (VT-d specification, "Second-Level Paging Entries"): one
// 64-bit word whose bits 12 and up hold the host page frame and whose bits 0
// and 1 grant read and write. VT-d has no separate present bit: an entry is
// present iff it grants R or W, which is why Map rejects a mapping with
// neither. A leaf of 512 entries is one 4-KiB page, as on the hardware.
type pte uint64

func makePTE(phys mem.Addr, perm Perm) pte { return pte(phys) | pte(perm) }

func (e pte) present() bool  { return Perm(e)&PermRW != 0 }
func (e pte) phys() mem.Addr { return mem.PageAlign(mem.Addr(e)) }
func (e pte) perm() Perm     { return Perm(e) & PermRW }

type leafTable struct {
	entries [leafEntries]pte
}

// Mapping is one contiguous run of identical-permission IO-virtual to
// physical translation, as recovered by walking the page directory. The
// Figure 9 experiment prints these.
type Mapping struct {
	IOVA  mem.Addr // start IO virtual address
	End   mem.Addr // one past the last mapped byte
	Phys  mem.Addr // start physical address
	Perm  Perm
	Ident bool // identity (IOVA == Phys) mapping
}

func (m Mapping) String() string {
	return fmt.Sprintf("%#010x-%#010x -> %#010x %s", uint64(m.IOVA), uint64(m.End), uint64(m.Phys), m.Perm)
}

// Domain is one protection domain: the IO page table the IOMMU applies to
// every DMA from the devices attached to it. SUD gives each untrusted driver
// process its own domain.
type Domain struct {
	ID     int
	leaves map[uint64]*leafTable
	pages  int

	// Passthrough makes every address translate to itself with full
	// permissions. The kernel attaches a passthrough domain to devices
	// driven by trusted in-kernel drivers — the Linux baseline
	// configuration in which a malicious driver's DMA goes anywhere.
	Passthrough bool
}

// NewDomain returns an empty domain.
func NewDomain(id int) *Domain {
	return &Domain{ID: id, leaves: make(map[uint64]*leafTable)}
}

func split(iova mem.Addr) (top uint64, idx int) {
	return uint64(iova) >> 21, int(uint64(iova) >> mem.PageShift & (leafEntries - 1))
}

// Map installs a translation for one page. iova and phys must be
// page-aligned; remapping an already-present page is an error (the kernel
// must unmap first, as with real IOMMU drivers).
func (d *Domain) Map(iova, phys mem.Addr, perm Perm) error {
	if !mem.IsPageAligned(iova) || !mem.IsPageAligned(phys) {
		return fmt.Errorf("iommu: unaligned mapping %#x -> %#x", uint64(iova), uint64(phys))
	}
	if perm&PermRW == 0 || perm&^PermRW != 0 {
		return fmt.Errorf("iommu: mapping %#x with permissions %#x, want r, w or rw", uint64(iova), uint8(perm))
	}
	top, idx := split(iova)
	lt := d.leaves[top]
	if lt == nil {
		lt = &leafTable{}
		d.leaves[top] = lt
	}
	if lt.entries[idx].present() {
		return fmt.Errorf("iommu: IOVA %#x already mapped", uint64(iova))
	}
	lt.entries[idx] = makePTE(phys, perm)
	d.pages++
	return nil
}

// MapRange maps size bytes starting at iova to consecutive physical pages at
// phys.
func (d *Domain) MapRange(iova, phys mem.Addr, size uint64, perm Perm) error {
	for off := uint64(0); off < size; off += mem.PageSize {
		if err := d.Map(iova+mem.Addr(off), phys+mem.Addr(off), perm); err != nil {
			return err
		}
	}
	return nil
}

// Unmap removes the translation for the page at iova, reporting whether one
// was present.
func (d *Domain) Unmap(iova mem.Addr) bool {
	top, idx := split(iova)
	lt := d.leaves[top]
	if lt == nil || !lt.entries[idx].present() {
		return false
	}
	lt.entries[idx] = 0
	d.pages--
	return true
}

// RevokePage atomically strips the translation for the page at iova in a
// single walk, returning the physical page it mapped. This is the page-flip
// ownership transfer (§3.1.2 amortised guard): after RevokePage (plus an
// IOTLB shootdown) the driver's device can no longer DMA to the page and the
// driver process loses its window onto it, so the kernel may read the
// contents by reference without a guard copy. The caller charges
// sim.CostPageFlipRevoke. Returns ok=false if the page was not mapped.
func (d *Domain) RevokePage(iova mem.Addr) (phys mem.Addr, ok bool) {
	top, idx := split(iova)
	lt := d.leaves[top]
	if lt == nil || !lt.entries[idx].present() {
		return 0, false
	}
	phys = lt.entries[idx].phys()
	lt.entries[idx] = 0
	d.pages--
	return phys, true
}

// UnmapRange unmaps size bytes starting at iova.
func (d *Domain) UnmapRange(iova mem.Addr, size uint64) {
	for off := uint64(0); off < size; off += mem.PageSize {
		d.Unmap(iova + mem.Addr(off))
	}
}

// Pages returns the number of mapped 4-KiB pages.
func (d *Domain) Pages() int { return d.pages }

// walk performs the two-level page table walk.
func (d *Domain) walk(iova mem.Addr) (pte, bool) {
	if d.Passthrough {
		return makePTE(mem.PageAlign(iova), PermRW), true
	}
	top, idx := split(iova)
	lt := d.leaves[top]
	if lt == nil || !lt.entries[idx].present() {
		return 0, false
	}
	return lt.entries[idx], true
}

// Mappings walks the page directory and returns the merged, sorted list of
// contiguous mappings — exactly what the paper did to produce Figure 9
// ("We read all mappings by walking the e1000e device's IO page directory").
func (d *Domain) Mappings() []Mapping {
	type page struct {
		iova, phys mem.Addr
		perm       Perm
	}
	var pages []page
	for top, lt := range d.leaves {
		for i, e := range lt.entries {
			if e.present() {
				pages = append(pages, page{
					iova: mem.Addr(top<<21 | uint64(i)<<mem.PageShift),
					phys: e.phys(),
					perm: e.perm(),
				})
			}
		}
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i].iova < pages[j].iova })
	var out []Mapping
	for _, p := range pages {
		n := len(out)
		if n > 0 && out[n-1].End == p.iova && out[n-1].Perm == p.perm &&
			out[n-1].Phys+(p.iova-out[n-1].IOVA) == p.phys {
			out[n-1].End += mem.PageSize
			continue
		}
		out = append(out, Mapping{
			IOVA:  p.iova,
			End:   p.iova + mem.PageSize,
			Phys:  p.phys,
			Perm:  p.perm,
			Ident: p.iova == p.phys,
		})
	}
	return out
}
