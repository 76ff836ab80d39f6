package iommu

import (
	"testing"
	"unsafe"

	"sud/internal/mem"
	"sud/internal/sim"
)

// TestPTELayoutSizes pins the VT-d layout's footprint: one word per entry,
// one 4-KiB page per leaf, and an IOTLB entry of four words.
func TestPTELayoutSizes(t *testing.T) {
	if s := unsafe.Sizeof(pte(0)); s != 8 {
		t.Fatalf("pte is %d B, want 8", s)
	}
	if s := unsafe.Sizeof(leafTable{}); s != mem.PageSize {
		t.Fatalf("leafTable is %d B, want %d", s, mem.PageSize)
	}
	if s := unsafe.Sizeof(iotlbEntry{}); s != 32 {
		t.Fatalf("iotlbEntry is %d B, want 32", s)
	}
}

// allows reports whether perm grants the access.
func allows(perm Perm, write bool) bool {
	if write {
		return perm&PermWrite != 0
	}
	return perm&PermRead != 0
}

// TestPTERoundTrip maps each permission to pages below and above 4 GiB and
// checks the entry through walk and through TranslateQ, on an IOTLB miss and
// on a hit, in both directions; then Unmap and RevokePage clear it.
func TestPTERoundTrip(t *testing.T) {
	const iova, off = mem.Addr(0x42430000), 0x123
	for _, perm := range []Perm{PermRead, PermWrite, PermRW} {
		for _, phys := range []mem.Addr{0x20000, 0x1_2345_6000, 0xF_FFFF_FFFF_F000} {
			u := newUnit(Config{Vendor: VendorAMD})
			d := u.NewDomain()
			u.Attach(devA, d)
			if err := d.Map(iova, phys, perm); err != nil {
				t.Fatal(err)
			}
			e, ok := d.walk(iova + off)
			if !ok || e.phys() != phys || e.perm() != perm {
				t.Fatalf("%s %#x: walk = %#x (phys %#x, perm %s), present %v",
					perm, uint64(phys), uint64(e), uint64(e.phys()), e.perm(), ok)
			}
			for _, write := range []bool{false, true} {
				u.InvalidateDevice(devA)
				translate := func(hit bool) {
					t.Helper()
					hits, misses := u.TLBStats()
					got, lat, err := u.TranslateQ(devA, 0, iova+off, write)
					wantLat := sim.CostIOMMUWalk
					if hit {
						wantLat = 0
					}
					if h, m := u.TLBStats(); hit && h != hits+1 || !hit && m != misses+1 {
						t.Fatalf("%s %#x write=%v: want an IOTLB hit=%v, stats %d/%d → %d/%d",
							perm, uint64(phys), write, hit, hits, misses, h, m)
					}
					if allows(perm, write) != (err == nil) || lat != wantLat {
						t.Fatalf("%s %#x write=%v hit=%v: err %v, latency %v", perm, uint64(phys), write, hit, err, lat)
					}
					if err == nil && got != phys+off {
						t.Fatalf("%s %#x write=%v hit=%v: translated to %#x", perm, uint64(phys), write, hit, uint64(got))
					}
				}
				translate(false)
				if !allows(perm, write) {
					// A denied walk caches nothing: reach the hit path
					// through an allowed access the other way.
					if _, _, err := u.TranslateQ(devA, 0, iova, !write); err != nil {
						t.Fatal(err)
					}
				}
				translate(true)
			}

			if !d.Unmap(iova) || d.Pages() != 0 {
				t.Fatalf("%s %#x: Unmap of a mapped page failed", perm, uint64(phys))
			}
			if _, ok := d.walk(iova); ok || d.Unmap(iova) {
				t.Fatalf("%s %#x: entry survived Unmap", perm, uint64(phys))
			}
			if err := d.Map(iova, phys, perm); err != nil {
				t.Fatal(err)
			}
			if got, ok := d.RevokePage(iova + off); !ok || got != phys || d.Pages() != 0 {
				t.Fatalf("%s %#x: RevokePage = %#x, %v", perm, uint64(phys), uint64(got), ok)
			}
			if _, ok := d.walk(iova); ok {
				t.Fatalf("%s %#x: entry survived RevokePage", perm, uint64(phys))
			}
			if _, ok := d.RevokePage(iova); ok {
				t.Fatalf("%s %#x: RevokePage of a cleared entry succeeded", perm, uint64(phys))
			}
		}
	}
}

// TestMapRejectsPermBitsOutsideRW: an entry holds R and W only, so any other
// permission bit is refused rather than dropped.
func TestMapRejectsPermBitsOutsideRW(t *testing.T) {
	d := NewDomain(1)
	for _, perm := range []Perm{0, 4, PermRead | 4, PermRW | 0x80} {
		if err := d.Map(0x1000, 0x2000, perm); err == nil {
			t.Fatalf("Map with permissions %#x succeeded", uint8(perm))
		}
	}
	if d.Pages() != 0 || len(d.Mappings()) != 0 {
		t.Fatal("a refused Map left an entry")
	}
}

func TestPassthroughTranslatesToItself(t *testing.T) {
	u := newUnit(Config{Vendor: VendorAMD})
	d := u.NewDomain()
	d.Passthrough = true
	u.Attach(devA, d)
	for _, a := range []mem.Addr{0x1234, 0x1_2345_6789} {
		if e, ok := d.walk(a); !ok || e.phys() != mem.PageAlign(a) || e.perm() != PermRW {
			t.Fatalf("passthrough walk of %#x = %#x, %v", uint64(a), uint64(e), ok)
		}
		for _, write := range []bool{false, true} {
			if got, _, err := u.Translate(devA, a, write); err != nil || got != a {
				t.Fatalf("passthrough translate of %#x (write %v) = %#x, %v", uint64(a), write, uint64(got), err)
			}
		}
	}
}

// FuzzDomain drives a domain attached to a unit with Map, Unmap, RevokePage,
// walk and translate operations decoded from the input, four bytes each,
// and checks every result and the final Mappings dump against a map model
// of the page table. IOVAs fall on 32 pages in each of 8 leaves, so
// operations collide; physical pages reach 2^48.
func FuzzDomain(f *testing.F) {
	f.Add([]byte{0x05, 0x00, 0x00, 0x10, 0x0A, 0x01, 0x00, 0x11, 0x03, 0x00, 0x00, 0x00, 0x04, 0x01, 0x01, 0x20})
	f.Add([]byte{0x0F, 0x21, 0x01, 0x02, 0x0F, 0x22, 0x01, 0x03, 0x01, 0x21, 0x00, 0x00, 0x02, 0x22, 0x00, 0x40})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type entry struct {
			phys mem.Addr
			perm Perm
		}
		u := newUnit(Config{Vendor: VendorAMD})
		d := u.NewDomain()
		u.Attach(devA, d)
		model := map[mem.Addr]entry{}
		for ; len(ops) >= 4; ops = ops[4:] {
			op, a, b, c := ops[0], ops[1], ops[2], ops[3]
			iova := mem.Addr(a>>5)<<21 | mem.Addr(a&31)<<mem.PageShift
			off := mem.Addr(c) << 4
			want, mapped := model[iova]
			switch op % 5 {
			case 0:
				phys := (mem.Addr(b)<<28 | mem.Addr(c)) << mem.PageShift
				perm := Perm(op / 5 % 8)
				valid := perm == PermRead || perm == PermWrite || perm == PermRW
				err := d.Map(iova, phys, perm)
				if (err == nil) != (valid && !mapped) {
					t.Fatalf("Map(%#x, %#x, %#x): err %v, mapped %v", uint64(iova), uint64(phys), uint8(perm), err, mapped)
				}
				if err == nil {
					model[iova] = entry{phys, perm}
				}
			case 1:
				if got := d.Unmap(iova); got != mapped {
					t.Fatalf("Unmap(%#x) = %v, mapped %v", uint64(iova), got, mapped)
				}
				u.Invalidate(devA, iova)
				delete(model, iova)
			case 2:
				phys, ok := u.RevokePage(devA, iova+off)
				if ok != mapped || ok && phys != want.phys {
					t.Fatalf("RevokePage(%#x) = %#x, %v; model %#x, %v", uint64(iova+off), uint64(phys), ok, uint64(want.phys), mapped)
				}
				delete(model, iova)
			case 3:
				e, ok := d.walk(iova + off)
				if ok != mapped || ok && (e.phys() != want.phys || e.perm() != want.perm) {
					t.Fatalf("walk(%#x) = %#x, %v; model %+v, %v", uint64(iova+off), uint64(e), ok, want, mapped)
				}
			case 4:
				write := b&1 != 0
				phys, _, err := u.TranslateQ(devA, 0, iova+off, write)
				if ok := mapped && allows(want.perm, write); (err == nil) != ok || ok && phys != want.phys+off {
					t.Fatalf("TranslateQ(%#x, write %v) = %#x, %v; model %+v, %v", uint64(iova+off), write, uint64(phys), err, want, mapped)
				}
			}
			if d.Pages() != len(model) {
				t.Fatalf("Pages() = %d, model holds %d", d.Pages(), len(model))
			}
		}

		// Mappings: sorted, disjoint, maximal runs covering the model
		// exactly.
		ms, pages := d.Mappings(), 0
		for i, m := range ms {
			if m.End <= m.IOVA || (m.End-m.IOVA)%mem.PageSize != 0 || m.Ident != (m.IOVA == m.Phys) {
				t.Fatalf("malformed mapping %v", m)
			}
			if i > 0 {
				p := ms[i-1]
				if p.End > m.IOVA {
					t.Fatalf("mappings %v and %v overlap or are out of order", p, m)
				}
				if p.End == m.IOVA && p.Perm == m.Perm && p.Phys+(p.End-p.IOVA) == m.Phys {
					t.Fatalf("mappings %v and %v are one run", p, m)
				}
			}
			for iova := m.IOVA; iova < m.End; iova += mem.PageSize {
				if e, ok := model[iova]; !ok || e.phys != m.Phys+(iova-m.IOVA) || e.perm != m.Perm {
					t.Fatalf("mapping %v: page %#x is %+v, %v in the model", m, uint64(iova), e, ok)
				}
				pages++
			}
		}
		if pages != len(model) {
			t.Fatalf("Mappings cover %d pages, model holds %d", pages, len(model))
		}
	})
}
