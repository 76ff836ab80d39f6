package nvme

import (
	"bytes"
	"testing"

	"sud/internal/mem"
	"sud/internal/sim"
)

// mediaRig boots a cacheless controller with one live I/O queue pair and
// returns it with the SQ base and a DMA buffer page.
func mediaRig(t *testing.T, p Params) (*rig, mem.Addr, mem.Addr) {
	t.Helper()
	r := newRig(t, p)
	alloc := func() mem.Addr {
		a, ok := r.m.Alloc.AllocPages(1)
		if !ok {
			t.Fatal("oom")
		}
		return a
	}
	sqb, cqb, buf := alloc(), alloc(), alloc()
	r.createPair(t, 1, sqb, cqb, 16)
	return r, sqb, buf
}

// readViaDMA reads block lba into buf (first filled with 0xEE, so a read
// that moved nothing shows) and returns what landed there.
func (r *rig) readViaDMA(t *testing.T, sqb, buf mem.Addr, slot int, lba uint64) []byte {
	t.Helper()
	r.m.Mem.MustWrite(buf, fillPage(0xEE))
	reads := r.c.ReadBlocks
	r.submitIO(t, 1, slot, sqb, CmdRead, uint16(slot+1), buf, lba)
	r.m.Loop.RunFor(sim.Millisecond)
	if r.c.ReadBlocks != reads+1 {
		t.Fatalf("read of LBA %d did not complete", lba)
	}
	got := make([]byte, BlockSize)
	r.m.Mem.MustRead(buf, got)
	return got
}

// stored reports whether LBA lba's chunk of the media index is backed, and
// whether the block itself is.
func (c *Ctrl) stored(lba uint64) (chunk, block bool) {
	ch := c.media[lba/chunkBlocks]
	return ch != nil, ch != nil && ch[lba%chunkBlocks] != nil
}

func TestNeverWrittenBlockReadsZero(t *testing.T) {
	r, sqb, buf := mediaRig(t, DefaultParams())
	zero := make([]byte, BlockSize)
	if got := r.readViaDMA(t, sqb, buf, 0, 9); !bytes.Equal(got, zero) {
		t.Fatal("DMA read of a never-written block is not zeros")
	}
	if !bytes.Equal(r.c.PeekMedia(9), zero) {
		t.Fatal("PeekMedia of a never-written block is not zeros")
	}
	if chunk, block := r.c.stored(9); chunk || block {
		t.Fatalf("reading a never-written block backed it: chunk %v, block %v", chunk, block)
	}
}

func TestWriteLeavesNeverWrittenBlocksZero(t *testing.T) {
	r, sqb, buf := mediaRig(t, DefaultParams())
	// A direct write, a seeded block and a read of each: none of them may
	// change what the never-written LBA 4 reads.
	r.m.Mem.MustWrite(buf, fillPage(0xA7))
	r.submitIO(t, 1, 0, sqb, CmdWrite, 1, buf, 3)
	r.m.Loop.RunFor(sim.Millisecond)
	r.c.SeedMedia(5, fillPage(0x5C))
	if got := r.readViaDMA(t, sqb, buf, 1, 3); !bytes.Equal(got, fillPage(0xA7)) {
		t.Fatal("written block does not read back")
	}
	if got := r.readViaDMA(t, sqb, buf, 2, 5); !bytes.Equal(got, fillPage(0x5C)) {
		t.Fatal("seeded block does not read back")
	}
	zero := make([]byte, BlockSize)
	if got := r.readViaDMA(t, sqb, buf, 3, 4); !bytes.Equal(got, zero) {
		t.Fatal("a write changed what a never-written block reads")
	}
	if !bytes.Equal(zeroBlock[:], zero) {
		t.Fatal("the shared zero block was written")
	}
}

// TestChunkBoundaryReads reads never-written LBAs beside written ones on
// both sides of a chunk boundary, and the last LBA, on a device whose size is
// a whole number of chunks and on one that ends inside a chunk. A read never
// backs a chunk or a block; a write backs exactly its own block.
func TestChunkBoundaryReads(t *testing.T) {
	zero := make([]byte, BlockSize)
	for _, blocks := range []uint64{8 * chunkBlocks, 2*chunkBlocks - 24} {
		p := DefaultParams()
		p.Blocks = blocks
		r, sqb, buf := mediaRig(t, p)
		last := blocks - 1
		slot := 0
		write := func(lba uint64, fill byte) {
			t.Helper()
			r.m.Mem.MustWrite(buf, fillPage(fill))
			r.submitIO(t, 1, slot, sqb, CmdWrite, uint16(slot+1), buf, lba)
			r.m.Loop.RunFor(sim.Millisecond)
			slot++
		}
		read := func(lba uint64, want []byte, chunk, block bool) {
			t.Helper()
			if got := r.readViaDMA(t, sqb, buf, slot, lba); !bytes.Equal(got, want) {
				t.Fatalf("%d blocks: LBA %d reads %#x..., want %#x...", blocks, lba, got[0], want[0])
			}
			slot++
			if c, b := r.c.stored(lba); c != chunk || b != block {
				t.Fatalf("%d blocks: LBA %d chunk backed %v, block backed %v; want %v, %v", blocks, lba, c, b, chunk, block)
			}
		}

		write(chunkBlocks-1, 0xA1)
		read(chunkBlocks-1, fillPage(0xA1), true, true)
		read(chunkBlocks-2, zero, true, false)
		read(chunkBlocks, zero, false, false)
		read(last, zero, false, false)

		write(chunkBlocks, 0xB2)
		read(chunkBlocks, fillPage(0xB2), true, true)
		read(chunkBlocks+1, zero, true, false)
		read(chunkBlocks-1, fillPage(0xA1), true, true)

		write(last, 0xC3)
		read(last, fillPage(0xC3), true, true)
		read(last-1, zero, true, false)
		if r.c.WriteBlocks != 3 {
			t.Fatalf("%d blocks: %d blocks written, want 3", blocks, r.c.WriteBlocks)
		}
	}
}

func TestDirectWritePRP2FaultOnNeverWrittenBlock(t *testing.T) {
	r, sqb, buf := mediaRig(t, DefaultParams())
	// The block's first half comes from the second half of a 0x77 page;
	// its second half would come from the unbacked PRP2.
	r.m.Mem.MustWrite(buf, fillPage(0x77))
	faults := r.c.DMAFaults
	r.submitPRP(t, 0, sqb, 1, buf+BlockSize/2, unbacked, 6, 0)
	r.m.Loop.RunFor(sim.Millisecond)
	if r.c.DMAFaults != faults+1 || r.c.WriteBlocks != 0 {
		t.Fatalf("faults %d→%d, writes %d", faults, r.c.DMAFaults, r.c.WriteBlocks)
	}
	want := append(fillPage(0x77)[:BlockSize/2], make([]byte, BlockSize/2)...)
	if !bytes.Equal(r.c.PeekMedia(6), want) {
		t.Fatal("torn direct write does not hold the PRP1 part plus zeros")
	}
}

func TestPowerFailKeepsWrittenMedia(t *testing.T) {
	r, sqb, buf := cacheRig(t, 4)
	r.c.SeedMedia(1, fillPage(0x11))
	// One FUA (direct) write and one cached write drained by a flush.
	r.m.Mem.MustWrite(buf, fillPage(0x22))
	r.submitIOF(t, 1, 0, sqb, CmdWrite, 1, buf, 2, SqeFlagFUA)
	r.m.Loop.RunFor(sim.Millisecond)
	r.m.Mem.MustWrite(buf, fillPage(0x33))
	r.submitIO(t, 1, 1, sqb, CmdWrite, 2, buf, 3)
	r.m.Loop.RunFor(sim.Millisecond)
	r.submitIO(t, 1, 2, sqb, CmdFlush, 3, 0, 0)
	r.m.Loop.RunFor(sim.Millisecond)

	r.c.PowerFail()
	for lba, want := range map[uint64][]byte{
		1: fillPage(0x11), 2: fillPage(0x22), 3: fillPage(0x33), 4: make([]byte, BlockSize),
	} {
		if !bytes.Equal(r.c.PeekMedia(lba), want) {
			t.Fatalf("LBA %d changed across power failure", lba)
		}
	}
}

// TestNeverWrittenReadAllocatesNothing pins the read of a never-written
// block: it is served from the shared zero block, so no media is created.
func TestNeverWrittenReadAllocatesNothing(t *testing.T) {
	r, _, buf := mediaRig(t, DefaultParams())
	sqe := make([]byte, SQESize)
	sqe[sqeOpcode] = CmdRead
	putLE64(sqe[sqePRP1:sqePRP1+8], uint64(buf))
	lba := uint64(0)
	read := func() {
		putLE64(sqe[sqeSLBA:sqeSLBA+8], lba%r.c.blocks)
		lba += 7
		var engine sim.Duration
		if st := r.c.execRW(1, sqe, false, &engine); st != StatusOK {
			t.Fatalf("read status %d", st)
		}
	}
	read() // the first DMA backs the buffer page
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Fatalf("a read of a never-written block allocates %.0f times, want 0", allocs)
	}
	for lba := uint64(0); lba < r.c.blocks; lba += chunkBlocks {
		if chunk, _ := r.c.stored(lba); chunk {
			t.Fatalf("reads backed the media chunk of LBA %d", lba)
		}
	}
}
