package nvme

import (
	"bytes"
	"testing"

	"sud/internal/mem"
	"sud/internal/sim"
)

// mediaRig boots a cacheless controller with one live I/O queue pair and
// returns it with the SQ base and a DMA buffer page.
func mediaRig(t *testing.T) (*rig, mem.Addr, mem.Addr) {
	t.Helper()
	r := newRig(t, DefaultParams())
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

func TestNeverWrittenBlockReadsZero(t *testing.T) {
	r, sqb, buf := mediaRig(t)
	zero := make([]byte, BlockSize)
	if got := r.readViaDMA(t, sqb, buf, 0, 9); !bytes.Equal(got, zero) {
		t.Fatal("DMA read of a never-written block is not zeros")
	}
	if !bytes.Equal(r.c.PeekMedia(9), zero) {
		t.Fatal("PeekMedia of a never-written block is not zeros")
	}
	if r.c.media[9] != nil {
		t.Fatal("reading a never-written block backed it")
	}
}

func TestWriteLeavesNeverWrittenBlocksZero(t *testing.T) {
	r, sqb, buf := mediaRig(t)
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

func TestDirectWritePRP2FaultOnNeverWrittenBlock(t *testing.T) {
	r, sqb, buf := mediaRig(t)
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
	r, _, buf := mediaRig(t)
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
	for _, b := range r.c.media {
		if b != nil {
			t.Fatal("reads backed a media block")
		}
	}
}
