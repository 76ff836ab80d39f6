package mem

import (
	"bytes"
	"testing"
)

// refMemory is the dense page store Memory replaced, kept as FuzzMemory's
// reference: a page is one 4 KiB array from its first access.
type refMemory struct {
	pages     map[Addr]*[PageSize]byte
	ram, size Addr // the one RAM range
	holes     map[Addr]bool
}

func newRefMemory(ram Addr, size uint64) *refMemory {
	return &refMemory{pages: map[Addr]*[PageSize]byte{}, ram: ram, size: Addr(size), holes: map[Addr]bool{}}
}

func (m *refMemory) inRAM(a Addr) bool { return a >= m.ram && a-m.ram < m.size }

func (m *refMemory) page(addr Addr) (*[PageSize]byte, bool) {
	base := PageAlign(addr)
	pg, ok := m.pages[base]
	if !ok && !m.holes[base] && m.inRAM(base) {
		pg = new([PageSize]byte)
		m.pages[base] = pg
		ok = true
	}
	return pg, ok
}

func (m *refMemory) AllocPage(addr Addr) {
	base := PageAlign(addr)
	delete(m.holes, base)
	if _, ok := m.pages[base]; !ok && !m.inRAM(base) {
		m.pages[base] = new([PageSize]byte)
	}
}

func (m *refMemory) AllocRange(addr Addr, size uint64) {
	if size == 0 {
		return
	}
	for p := PageAlign(addr); p < addr+Addr(size); p += PageSize {
		m.AllocPage(p)
	}
}

func (m *refMemory) FreePage(addr Addr) {
	base := PageAlign(addr)
	delete(m.pages, base)
	if m.inRAM(base) {
		m.holes[base] = true
	}
}

func (m *refMemory) Populated(addr Addr) bool {
	base := PageAlign(addr)
	if _, ok := m.pages[base]; ok {
		return true
	}
	return !m.holes[base] && m.inRAM(base)
}

func (m *refMemory) Read(addr Addr, p []byte) error {
	for len(p) > 0 {
		pg, ok := m.page(addr)
		if !ok {
			return &AccessError{Addr: addr}
		}
		n := copy(p, pg[PageOffset(addr):])
		p = p[n:]
		addr += Addr(n)
	}
	return nil
}

func (m *refMemory) Write(addr Addr, p []byte) error {
	for len(p) > 0 {
		pg, ok := m.page(addr)
		if !ok {
			return &AccessError{Addr: addr, Write: true}
		}
		n := copy(pg[PageOffset(addr):], p)
		p = p[n:]
		addr += Addr(n)
	}
	return nil
}

func (m *refMemory) Slice(addr Addr, n int) ([]byte, bool) {
	if n <= 0 || PageOffset(addr)+uint64(n) > PageSize {
		return nil, false
	}
	pg, ok := m.page(addr)
	if !ok {
		return nil, false
	}
	off := PageOffset(addr)
	return pg[off : off+uint64(n)], true
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	ea, okA := a.(*AccessError)
	eb, okB := b.(*AccessError)
	return okA && okB && *ea == *eb
}

// FuzzMemory runs a random sequence of Write, Read, Slice with a write
// through the view, AllocPage, AllocRange and FreePage over three RAM pages
// and one page outside RAM, with lengths from 0 to past a page, on Memory
// and on refMemory. After every step the errors, Populated and every byte of
// the four pages and the unpopulated one past them must match, Read must
// not have backed anything, and a view taken in the step must agree with
// Read before and after the write through it.
func FuzzMemory(f *testing.F) {
	// op, address (2 bytes), length (2 bytes: even is small, odd is up to
	// a page and more), fill byte.
	f.Add([]byte{0, 0x10, 0, 0x20, 0, 1, 0, 0xF0, 0, 0x41, 0x10, 2, 1, 0, 0, 0, 0x30, 0})
	f.Add([]byte{0, 0xF0, 0x0F, 0x10, 0, 7, 0, 0x00, 0x00, 0x01, 0x04, 9})
	f.Add([]byte{2, 0x08, 0, 0x10, 0, 3, 0, 0x00, 0x02, 0x00, 0x02, 4, 1, 0x08, 0, 0x10, 0, 0})
	f.Add([]byte{0, 0x00, 0x30, 0x40, 0, 5, 3, 0x00, 0x30, 0, 0, 0, 0, 0xF8, 0x3F, 0x41, 0, 6,
		5, 0x00, 0x30, 0, 0, 0, 1, 0x00, 0x30, 0x21, 0, 0})
	f.Add([]byte{0, 0x00, 0x11, 0x08, 0, 7, 0, 0x00, 0x13, 0x08, 0, 8, 5, 0x00, 0x10, 0, 0, 0,
		0, 0x00, 0x10, 0x09, 0x40, 9, 4, 0x00, 0x20, 0x01, 0x20, 0, 1, 0xF0, 0x1F, 0x41, 0x00, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const base, ramPages, maxOps = 0x10000, 3, 64
		const pages = ramPages + 1 // and one outside RAM
		m, ref := New(), newRefMemory(base, ramPages*PageSize)
		m.AddRAMRange(base, ramPages*PageSize)
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		fill := func(p []byte, b byte) []byte {
			for i := range p {
				p[i] = b + byte(i)
			}
			return p
		}
		for ops := 0; len(data) > 0 && ops < maxOps; ops++ {
			op := next()
			addr := base + Addr(uint16(next())|uint16(next())<<8)%(pages*PageSize)
			l := int(next()) | int(next())<<8
			n := l >> 1 % 300
			if l&1 != 0 {
				n = l >> 1 % (PageSize + 300)
			}
			b := next()
			switch op % 6 {
			case 0:
				p := fill(make([]byte, n), b)
				if err, want := m.Write(addr, p), ref.Write(addr, p); !sameErr(err, want) {
					t.Fatalf("Write(%#x, %d B) = %v, want %v", uint64(addr), n, err, want)
				}
			case 1:
				got, want := make([]byte, n), make([]byte, n)
				backed := m.Backed()
				if err, werr := m.Read(addr, got), ref.Read(addr, want); !sameErr(err, werr) || !bytes.Equal(got, want) {
					t.Fatalf("Read(%#x, %d B) = %v, want %v, or bytes differ", uint64(addr), n, err, werr)
				}
				if m.Backed() != backed {
					t.Fatalf("Read(%#x, %d B) backed %d B", uint64(addr), n, m.Backed()-backed)
				}
			case 2:
				view, ok := m.Slice(addr, n)
				want, wok := ref.Slice(addr, n)
				if ok != wok || !bytes.Equal(view, want) {
					t.Fatalf("Slice(%#x, %d) = %t, want %t, or bytes differ", uint64(addr), n, ok, wok)
				}
				if !ok {
					break
				}
				fill(view, b)
				fill(want, b)
				got := make([]byte, n)
				if err := m.Read(addr, got); err != nil || !bytes.Equal(got, view) {
					t.Fatalf("Read after a write through Slice(%#x, %d): %v, or bytes differ", uint64(addr), n, err)
				}
			case 3:
				m.AllocPage(addr)
				ref.AllocPage(addr)
			case 4:
				m.AllocRange(addr, uint64(n))
				ref.AllocRange(addr, uint64(n))
			case 5:
				m.FreePage(addr)
				ref.FreePage(addr)
			}
			got, want := make([]byte, PageSize), make([]byte, PageSize)
			for p := Addr(base); p <= base+pages*PageSize; p += PageSize {
				if m.Populated(p) != ref.Populated(p) {
					t.Fatalf("op %d: Populated(%#x) = %t, want %t", ops, uint64(p), m.Populated(p), ref.Populated(p))
				}
				err, werr := m.Read(p, got), ref.Read(p, want)
				if !sameErr(err, werr) || !bytes.Equal(got, want) {
					t.Fatalf("op %d: page %#x reads %v, want %v, or bytes differ", ops, uint64(p), err, werr)
				}
			}
			if m.Backed() > pages*PageSize+PageSize || m.Backed()%chunkSize != 0 {
				t.Fatalf("op %d: %d B backed", ops, m.Backed())
			}
		}
	})
}
