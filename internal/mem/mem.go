// Package mem models the machine's physical memory (DRAM) as a sparse set of
// 4 KiB pages. Every byte a device DMAs, every descriptor a driver writes,
// lives here; nothing in the simulation short-circuits around it, so a DMA to
// a wrong address corrupts exactly the bytes a real DMA would.
//
// The host backs a page in 256 B chunks, each on the first write or view
// into it, until a write or view spans two chunks; then the page becomes one
// 4 KiB array. A DMA buffer written far below its page size, such as a
// 2 KiB packet slot holding a 64 B frame, so costs the host what was written.
package mem

import (
	"fmt"
	"slices"
)

// PageSize is the physical page size, 4 KiB, matching x86 and the IOMMU page
// granularity SUD depends on (§3.2.1: MMIO ranges must be page-aligned).
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Addr is a physical (or bus/IO-virtual) address.
type Addr uint64

// PageAlign rounds a down to a page boundary.
func PageAlign(a Addr) Addr { return a &^ (PageSize - 1) }

// PageOffset returns a's offset within its page.
func PageOffset(a Addr) uint64 { return uint64(a) & (PageSize - 1) }

// IsPageAligned reports whether a sits on a page boundary.
func IsPageAligned(a Addr) bool { return PageOffset(a) == 0 }

// AccessError describes a physical memory access that touched an
// unpopulated address.
type AccessError struct {
	Addr  Addr
	Write bool
}

func (e *AccessError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("mem: %s of unpopulated physical address %#x", op, uint64(e.Addr))
}

// chunkSize is the granule a page is backed in until an access spans two
// of them.
const chunkSize = 256

const chunksPerPage = PageSize / chunkSize

// poison fills a chunk its page's promotion retires, so a stale view of it
// reads garbage instead of plausible old bytes (the byte Linux's slab
// poisons freed objects with).
const poison = 0x6B

// frame is one page's backing store: nothing until first written or viewed,
// then the chunks written or viewed so far, then, from the first write or
// view that spans two chunks, the whole page.
type frame struct {
	whole  *[PageSize]byte
	chunks *[chunksPerPage]*[chunkSize]byte
}

// Memory is sparse physical memory. The zero value is empty; populate pages
// with AllocPage/AllocRange, or declare DRAM with AddRAMRange for lazy
// population on first touch.
type Memory struct {
	pages map[Addr]frame // pages allocated outside RAM ranges or written or viewed
	rams  []ramRange
	holes map[Addr]bool // explicitly freed pages inside RAM ranges

	// Stats.
	reads, writes     uint64
	bytesIn, bytesOut uint64
}

type ramRange struct {
	base Addr
	size uint64
}

// New returns empty physical memory.
func New() *Memory {
	return &Memory{
		pages: make(map[Addr]frame),
		holes: make(map[Addr]bool),
	}
}

// AddRAMRange declares [base, base+size) as DRAM. Pages inside a RAM range
// are populated lazily on first access, so declaring gigabytes is free.
func (m *Memory) AddRAMRange(base Addr, size uint64) {
	m.rams = append(m.rams, ramRange{base: PageAlign(base), size: size})
}

// inRAM reports whether addr falls inside a declared RAM range.
func (m *Memory) inRAM(addr Addr) bool {
	for _, r := range m.rams {
		if addr >= r.base && uint64(addr-r.base) < r.size {
			return true
		}
	}
	return false
}

// lookup returns the backing store of the page at base and whether the page
// is populated.
func (m *Memory) lookup(base Addr) (frame, bool) {
	f, ok := m.pages[base]
	return f, ok || !m.holes[base] && m.inRAM(base)
}

// back returns the backing store of the n > 0 bytes at addr, which lie in
// one page, backing them first if need be: in their chunk if they fit in
// one, else as the whole page. Promoting a page that held chunks copies
// them into the page and poisons them.
func (m *Memory) back(addr Addr, n uint64) ([]byte, bool) {
	base, off := PageAlign(addr), PageOffset(addr)
	f, ok := m.lookup(base)
	if !ok {
		return nil, false
	}
	if f.whole != nil {
		return f.whole[off : off+n : off+n], true
	}
	if i := off / chunkSize; i == (off+n-1)/chunkSize {
		if f.chunks == nil {
			f.chunks = new([chunksPerPage]*[chunkSize]byte)
			m.pages[base] = f
		}
		if f.chunks[i] == nil {
			f.chunks[i] = new([chunkSize]byte)
		}
		o := off % chunkSize
		return f.chunks[i][o : o+n : o+n], true
	}
	f.whole = new([PageSize]byte)
	if f.chunks != nil {
		for i, c := range f.chunks {
			if c != nil {
				copy(f.whole[i*chunkSize:], c[:])
				for j := range c {
					c[j] = poison
				}
			}
		}
		f.chunks = nil
	}
	m.pages[base] = f
	return f.whole[off : off+n : off+n], true
}

// read copies the page's bytes at off into p, which ends inside the page. A
// chunk never backed reads zero.
func (f frame) read(off uint64, p []byte) {
	if f.whole != nil {
		copy(p, f.whole[off:])
		return
	}
	for len(p) > 0 {
		i, o := off/chunkSize, off%chunkSize
		n := min(uint64(len(p)), chunkSize-o)
		if f.chunks != nil && f.chunks[i] != nil {
			copy(p, f.chunks[i][o:])
		} else {
			clear(p[:n])
		}
		p = p[n:]
		off += n
	}
}

// backed returns the host bytes backing the page.
func (f frame) backed() uint64 {
	if f.whole != nil {
		return PageSize
	}
	var n uint64
	if f.chunks != nil {
		for _, c := range f.chunks {
			if c != nil {
				n += chunkSize
			}
		}
	}
	return n
}

// AllocPage makes the page containing addr accessible (idempotent) and
// returns its base address. Inside a RAM range it only clears a freed page's
// hole; outside one it records the page. Either way the page reads zero and
// is backed as it is written or viewed, like the rest of DRAM.
func (m *Memory) AllocPage(addr Addr) Addr {
	base := PageAlign(addr)
	delete(m.holes, base)
	if _, ok := m.pages[base]; !ok && !m.inRAM(base) {
		m.pages[base] = frame{}
	}
	return base
}

// AllocRange allocates every page overlapping [addr, addr+size).
func (m *Memory) AllocRange(addr Addr, size uint64) {
	if size == 0 {
		return
	}
	for p := PageAlign(addr); p < addr+Addr(size); p += PageSize {
		m.AllocPage(p)
	}
}

// FreePage removes the page containing addr; later access faults even if the
// page is inside a declared RAM range.
func (m *Memory) FreePage(addr Addr) {
	base := PageAlign(addr)
	delete(m.pages, base)
	if m.inRAM(base) {
		m.holes[base] = true
	}
}

// Populated reports whether the page containing addr is accessible.
func (m *Memory) Populated(addr Addr) bool {
	_, ok := m.lookup(PageAlign(addr))
	return ok
}

// Backed returns the bytes of host memory backing the populated pages:
// 4 KiB per whole page and 256 B per chunk. A page costs nothing until it
// is written or viewed, and a Read never backs anything.
func (m *Memory) Backed() uint64 {
	var n uint64
	for _, f := range m.pages {
		n += f.backed()
	}
	return n
}

// Read copies len(p) bytes starting at addr into p. It fails with
// *AccessError if any touched page is unpopulated; in that case p may be
// partially filled. Bytes never written read zero.
func (m *Memory) Read(addr Addr, p []byte) error {
	m.reads++
	m.bytesOut += uint64(len(p))
	for len(p) > 0 {
		f, ok := m.lookup(PageAlign(addr))
		if !ok {
			return &AccessError{Addr: addr}
		}
		n := min(uint64(len(p)), PageSize-PageOffset(addr))
		f.read(PageOffset(addr), p[:n])
		p = p[n:]
		addr += Addr(n)
	}
	return nil
}

// Write copies p into physical memory starting at addr. It fails with
// *AccessError if any touched page is unpopulated; preceding pages will have
// been written (as real partial DMA would).
func (m *Memory) Write(addr Addr, p []byte) error {
	m.writes++
	m.bytesIn += uint64(len(p))
	for len(p) > 0 {
		b, ok := m.back(addr, min(uint64(len(p)), PageSize-PageOffset(addr)))
		if !ok {
			return &AccessError{Addr: addr, Write: true}
		}
		n := copy(b, p)
		p = p[n:]
		addr += Addr(n)
	}
	return nil
}

// ReadU32 reads a little-endian uint32 at addr.
func (m *Memory) ReadU32(addr Addr) (uint32, error) {
	var b [4]byte
	if err := m.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// WriteU32 writes v little-endian at addr.
func (m *Memory) WriteU32(addr Addr, v uint32) error {
	b := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	return m.Write(addr, b[:])
}

// ReadU64 reads a little-endian uint64 at addr.
func (m *Memory) ReadU64(addr Addr) (uint64, error) {
	var b [8]byte
	if err := m.Read(addr, b[:]); err != nil {
		return 0, err
	}
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v, nil
}

// WriteU64 writes v little-endian at addr.
func (m *Memory) WriteU64(addr Addr, v uint64) error {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return m.Write(addr, b[:])
}

// Slice returns a direct view of n bytes of backing store at addr, if the
// range lies within a single populated page. It models zero-copy kernel
// access to DRAM (an skb pointing into a DMA buffer); mutations through the
// slice are immediately visible to DMA and vice versa.
//
// A view that fits in one 256 B chunk of a page not yet promoted is a view
// of that chunk, and it stays valid only until the page is promoted: until
// a Write or Slice anywhere in the page spans two chunks. The promotion
// fills the retired chunk with a poison byte, so a stale view reads
// garbage. A view into a promoted page, as every view spanning two chunks
// is, stays valid until FreePage. So a caller keeps a small view only while
// nothing can write or view across a chunk boundary in its page.
func (m *Memory) Slice(addr Addr, n int) ([]byte, bool) {
	if n <= 0 || PageOffset(addr)+uint64(n) > PageSize {
		return nil, false
	}
	return m.back(addr, uint64(n))
}

// MustRead is Read that panics on fault; for trusted kernel/test paths where
// a fault indicates a bug in the simulation itself.
func (m *Memory) MustRead(addr Addr, p []byte) {
	if err := m.Read(addr, p); err != nil {
		panic(err)
	}
}

// MustWrite is Write that panics on fault.
func (m *Memory) MustWrite(addr Addr, p []byte) {
	if err := m.Write(addr, p); err != nil {
		panic(err)
	}
}

// Stats returns cumulative access counts.
func (m *Memory) Stats() (reads, writes, bytesIn, bytesOut uint64) {
	return m.reads, m.writes, m.bytesIn, m.bytesOut
}

// Allocator hands out physical pages from a region, with a free list. The
// kernel uses one for its own memory and for DMA buffers it grants to driver
// processes.
type Allocator struct {
	mem   *Memory
	start Addr
	next  Addr
	end   Addr
	free  []Addr // freed pages, ascending
}

// NewAllocator manages [start, start+size) of mem. start must be
// page-aligned.
func NewAllocator(mem *Memory, start Addr, size uint64) *Allocator {
	if !IsPageAligned(start) {
		panic(fmt.Sprintf("mem: allocator start %#x not page aligned", uint64(start)))
	}
	return &Allocator{mem: mem, start: start, next: start, end: start + Addr(size)}
}

// AllocPages allocates n contiguous pages and returns the base address.
// Contiguity matters: DMA ring buffers are physically contiguous on real
// hardware. The lowest run of n contiguous freed pages is reused before the
// region grows, so a driver that dies and restarts takes back the address
// space its dead incarnation held. Every page reads zero until written.
// Returns 0 and false when exhausted.
func (a *Allocator) AllocPages(n int) (Addr, bool) {
	if n <= 0 {
		return 0, false
	}
	base, ok := a.takeFree(n)
	if !ok {
		need := Addr(n * PageSize)
		if a.next+need > a.end {
			return 0, false
		}
		base = a.next
		a.next += need
	}
	a.mem.AllocRange(base, uint64(n*PageSize))
	return base, true
}

// takeFree removes the lowest run of n contiguous pages from the free list.
func (a *Allocator) takeFree(n int) (Addr, bool) {
	start := 0
	for i := range a.free {
		if i > start && a.free[i] != a.free[i-1]+PageSize {
			start = i
		}
		if i-start+1 == n {
			base := a.free[start]
			a.free = slices.Delete(a.free, start, i+1)
			return base, true
		}
	}
	return 0, false
}

// FreePages returns n pages starting at base to the allocator and
// depopulates them so stale access faults.
func (a *Allocator) FreePages(base Addr, n int) {
	at, _ := slices.BinarySearch(a.free, base)
	old := len(a.free)
	a.free = slices.Grow(a.free, n)[:old+n]
	copy(a.free[at+n:], a.free[at:old])
	for i := 0; i < n; i++ {
		p := base + Addr(i*PageSize)
		a.mem.FreePage(p)
		a.free[at+i] = p
	}
}

// InUse returns the number of bytes handed out and not freed.
func (a *Allocator) InUse() uint64 {
	return a.HighWater() - uint64(len(a.free))*PageSize
}

// HighWater returns how many bytes of the region have ever been handed out:
// it grows only when no freed run fits a request.
func (a *Allocator) HighWater() uint64 { return uint64(a.next - a.start) }
