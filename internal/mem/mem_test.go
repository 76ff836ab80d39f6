package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestPageHelpers(t *testing.T) {
	if PageAlign(0x1234) != 0x1000 {
		t.Fatalf("PageAlign(0x1234) = %#x", uint64(PageAlign(0x1234)))
	}
	if PageOffset(0x1234) != 0x234 {
		t.Fatalf("PageOffset(0x1234) = %#x", PageOffset(0x1234))
	}
	if !IsPageAligned(0x2000) || IsPageAligned(0x2001) {
		t.Fatal("IsPageAligned wrong")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	m.AllocRange(0x1000, 2*PageSize)
	data := []byte("hello, physical world")
	if err := m.Write(0x1ff0, data); err != nil { // spans a page boundary
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := m.Read(0x1ff0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip got %q, want %q", got, data)
	}
}

func TestUnpopulatedAccessFaults(t *testing.T) {
	m := New()
	err := m.Read(0x5000, make([]byte, 4))
	ae, ok := err.(*AccessError)
	if !ok {
		t.Fatalf("read fault error = %v, want *AccessError", err)
	}
	if ae.Write {
		t.Fatal("read fault marked as write")
	}
	err = m.Write(0x5000, []byte{1})
	ae, ok = err.(*AccessError)
	if !ok || !ae.Write {
		t.Fatalf("write fault = %v, want write AccessError", err)
	}
	if ae.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestPartialWriteStopsAtFault(t *testing.T) {
	m := New()
	m.AllocPage(0x1000)
	// Page 0x2000 is unpopulated: the write should fill the end of page
	// 0x1000 then fault.
	data := bytes.Repeat([]byte{0xAB}, 32)
	err := m.Write(0x1ff0, data)
	if err == nil {
		t.Fatal("write across unpopulated page did not fault")
	}
	got := make([]byte, 16)
	m.MustRead(0x1ff0, got)
	if !bytes.Equal(got, data[:16]) {
		t.Fatal("bytes before the fault were not written")
	}
}

func TestFreePageFaultsAfter(t *testing.T) {
	m := New()
	m.AllocPage(0x3000)
	m.MustWrite(0x3000, []byte{1, 2, 3})
	m.FreePage(0x3000)
	if err := m.Read(0x3000, make([]byte, 1)); err == nil {
		t.Fatal("read of freed page did not fault")
	}
}

func TestU32U64(t *testing.T) {
	m := New()
	m.AllocPage(0)
	if err := m.WriteU32(4, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadU32(4)
	if err != nil || v != 0xDEADBEEF {
		t.Fatalf("ReadU32 = %#x, %v", v, err)
	}
	// Little-endian check.
	b := make([]byte, 4)
	m.MustRead(4, b)
	if b[0] != 0xEF || b[3] != 0xDE {
		t.Fatalf("WriteU32 not little-endian: % x", b)
	}
	if err := m.WriteU64(8, 0x0123456789ABCDEF); err != nil {
		t.Fatal(err)
	}
	v64, err := m.ReadU64(8)
	if err != nil || v64 != 0x0123456789ABCDEF {
		t.Fatalf("ReadU64 = %#x, %v", v64, err)
	}
	if _, err := m.ReadU32(0x9000); err == nil {
		t.Fatal("ReadU32 of unpopulated page did not fault")
	}
	if _, err := m.ReadU64(0x9000); err == nil {
		t.Fatal("ReadU64 of unpopulated page did not fault")
	}
}

func TestStatsCount(t *testing.T) {
	m := New()
	m.AllocPage(0)
	m.MustWrite(0, make([]byte, 10))
	m.MustRead(0, make([]byte, 6))
	r, w, in, out := m.Stats()
	if r != 1 || w != 1 || in != 10 || out != 6 {
		t.Fatalf("stats = %d %d %d %d", r, w, in, out)
	}
}

func TestAllocatorContiguous(t *testing.T) {
	m := New()
	a := NewAllocator(m, 0x100000, 16*PageSize)
	p1, ok := a.AllocPages(4)
	if !ok {
		t.Fatal("alloc failed")
	}
	p2, ok := a.AllocPages(2)
	if !ok {
		t.Fatal("alloc failed")
	}
	if p2 != p1+4*PageSize {
		t.Fatalf("allocations not contiguous: %#x then %#x", uint64(p1), uint64(p2))
	}
	if !m.Populated(p1) || !m.Populated(p2+PageSize) {
		t.Fatal("allocated pages not populated")
	}
	if a.InUse() != 6*PageSize {
		t.Fatalf("InUse = %d, want %d", a.InUse(), 6*PageSize)
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	m := New()
	a := NewAllocator(m, 0x100000, 2*PageSize)
	if _, ok := a.AllocPages(3); ok {
		t.Fatal("over-allocation succeeded")
	}
	if _, ok := a.AllocPages(2); !ok {
		t.Fatal("exact-fit allocation failed")
	}
	if _, ok := a.AllocPages(1); ok {
		t.Fatal("allocation from empty allocator succeeded")
	}
}

func TestAllocatorFreeList(t *testing.T) {
	m := New()
	a := NewAllocator(m, 0x100000, 4*PageSize)
	p, _ := a.AllocPages(1)
	a.FreePages(p, 1)
	if m.Populated(p) {
		t.Fatal("freed page still populated")
	}
	if a.InUse() != 0 {
		t.Fatalf("InUse after free = %d", a.InUse())
	}
	p2, ok := a.AllocPages(1)
	if !ok || p2 != p {
		t.Fatalf("free list not reused: got %#x want %#x", uint64(p2), uint64(p))
	}
}

// ramAllocator is an allocator over a declared RAM range, the way the
// machine builds its own.
func ramAllocator(pages int) (*Memory, *Allocator) {
	m := New()
	m.AddRAMRange(0x100000, uint64(pages)*PageSize)
	return m, NewAllocator(m, 0x100000, uint64(pages)*PageSize)
}

func TestAllocatedRAMBackedOnFirstTouch(t *testing.T) {
	m, a := ramAllocator(512)
	if _, ok := a.AllocPages(256); !ok {
		t.Fatal("alloc failed")
	}
	if m.Backed() != 0 {
		t.Fatalf("AllocPages(256) backed %d B", m.Backed())
	}
	// A read backs nothing, a write or view inside one chunk backs that
	// chunk and a write across chunks backs the whole page.
	for _, tc := range []struct {
		name  string
		touch func(p Addr)
		want  uint64
	}{
		{"4 KiB Read", func(p Addr) { m.MustRead(p, make([]byte, PageSize)) }, 0},
		{"1 B Write", func(p Addr) { m.MustWrite(p, []byte{1}) }, chunkSize},
		{"8 B Slice", func(p Addr) { m.Slice(p, 8) }, chunkSize},
		{"4 KiB Write", func(p Addr) { m.MustWrite(p, make([]byte, PageSize)) }, PageSize},
	} {
		p, _ := a.AllocPages(1)
		if !m.Populated(p) {
			t.Fatalf("%s: allocated page not populated", tc.name)
		}
		before := m.Backed()
		tc.touch(p)
		if got := m.Backed() - before; got != tc.want {
			t.Fatalf("%s of an untouched page backed %d B, want %d", tc.name, got, tc.want)
		}
	}
	p, _ := a.AllocPages(1)
	got := make([]byte, PageSize)
	m.MustRead(p, got)
	if !bytes.Equal(got, make([]byte, PageSize)) {
		t.Fatal("untouched allocated page does not read zero")
	}
}

// TestPromotionPoisonsChunkViews: a write across two chunks promotes the
// page, after which a view taken into one of its chunks reads poison, while
// Read and a new view read the data.
func TestPromotionPoisonsChunkViews(t *testing.T) {
	m, a := ramAllocator(1)
	p, _ := a.AllocPages(1)
	stale, _ := m.Slice(p+8, 8)
	copy(stale, "chunk 0!")
	m.MustWrite(p+chunkSize-4, []byte("spanning"))
	if m.Backed() != PageSize {
		t.Fatalf("after a spanning write %d B backed, want one page", m.Backed())
	}
	if !bytes.Equal(stale, bytes.Repeat([]byte{poison}, 8)) {
		t.Fatalf("stale chunk view reads %q, want poison", stale)
	}
	got := make([]byte, chunkSize-4) // up to the spanning write's end
	m.MustRead(p+8, got)
	if string(got[:8]) != "chunk 0!" || string(got[len(got)-8:]) != "spanning" {
		t.Fatalf("Read after promotion = %q", got)
	}
	if view, _ := m.Slice(p+8, 8); string(view) != "chunk 0!" {
		t.Fatalf("new view after promotion = %q", view)
	}
}

// TestWholePageViewStaysCoherent: a view of a whole page sees later writes,
// however small, and Read and other views see writes through it.
func TestWholePageViewStaysCoherent(t *testing.T) {
	m, a := ramAllocator(1)
	p, _ := a.AllocPages(1)
	view, ok := m.Slice(p, PageSize)
	if !ok {
		t.Fatal("no view of an allocated page")
	}
	m.MustWrite(p+100, []byte{1, 2, 3})
	if !bytes.Equal(view[100:103], []byte{1, 2, 3}) {
		t.Fatalf("whole-page view reads % x after a 3 B write", view[100:103])
	}
	copy(view[3000:], "through the view")
	got := make([]byte, 16)
	m.MustRead(p+3000, got)
	if string(got) != "through the view" {
		t.Fatalf("Read after a write through the view = %q", got)
	}
	small, _ := m.Slice(p+3000, 7)
	copy(small, "THROUGH")
	if string(view[3000:3016]) != "THROUGH the view" || m.Backed() != PageSize {
		t.Fatalf("whole-page view reads %q after a write through a small view, %d B backed",
			view[3000:3016], m.Backed())
	}
}

func TestFreedRAMPageFaultsThenReadsZero(t *testing.T) {
	m, a := ramAllocator(4)
	p, _ := a.AllocPages(1)
	m.MustWrite(p, []byte{0xAB, 0xCD})
	a.FreePages(p, 1)
	if err := m.Read(p, make([]byte, 1)); err == nil {
		t.Fatal("read of a freed page did not fault")
	}
	if m.Populated(p) {
		t.Fatal("freed page still populated")
	}
	p2, _ := a.AllocPages(1)
	if p2 != p {
		t.Fatalf("freed page not reused: %#x, want %#x", uint64(p2), uint64(p))
	}
	got := make([]byte, 2)
	m.MustRead(p2, got)
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("re-allocated page reads % x, want zeros", got)
	}
}

func TestAllocatorReusesFreedRuns(t *testing.T) {
	m, a := ramAllocator(1024)
	// One holder's allocations, as a driver incarnation makes them: single
	// pages between multi-page pools.
	sizes := []int{1, 1, 64, 64, 1, 1, 64, 1, 1, 64}
	hold := func() []Addr {
		var out []Addr
		for _, n := range sizes {
			p, ok := a.AllocPages(n)
			if !ok {
				t.Fatal("out of memory")
			}
			m.MustWrite(p, []byte{0xFF})
			out = append(out, p)
		}
		return out
	}
	release := func(ps []Addr) {
		for i, p := range ps {
			a.FreePages(p, sizes[i])
		}
	}
	release(hold())
	high := a.HighWater()
	for i := 0; i < 50; i++ {
		release(hold())
		if a.HighWater() != high || a.InUse() != 0 {
			t.Fatalf("cycle %d: high water %d (was %d), in use %d", i, a.HighWater(), high, a.InUse())
		}
	}
	// A run must be contiguous: with one page freed inside a held run, a
	// two-page request skips it for the next free run.
	p1, _ := a.AllocPages(3)
	a.FreePages(p1+PageSize, 1)
	if p2, _ := a.AllocPages(2); p2 != p1+3*PageSize {
		t.Fatalf("two pages at %#x, want %#x", uint64(p2), uint64(p1+3*PageSize))
	}
}

func TestAllocatorBadArgs(t *testing.T) {
	m := New()
	a := NewAllocator(m, 0x100000, 4*PageSize)
	if _, ok := a.AllocPages(0); ok {
		t.Fatal("AllocPages(0) succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned allocator start did not panic")
		}
	}()
	NewAllocator(m, 0x100001, PageSize)
}

// Property: any write followed by a read of the same range returns the same
// bytes, for arbitrary offsets and lengths within a populated region.
func TestRoundTripProperty(t *testing.T) {
	m := New()
	m.AllocRange(0, 64*PageSize)
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		addr := Addr(uint64(off) * 7 % (63 * PageSize)) // spread across pages, in range
		if err := m.Write(addr, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := m.Read(addr, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: PageAlign is idempotent and never increases the address.
func TestPageAlignProperty(t *testing.T) {
	f := func(a uint64) bool {
		al := PageAlign(Addr(a))
		return al <= Addr(a) && PageAlign(al) == al && uint64(Addr(a)-al) < PageSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
