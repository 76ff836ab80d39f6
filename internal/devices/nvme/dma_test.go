package nvme

import (
	"bytes"
	"testing"

	"sud/internal/mem"
	"sud/internal/sim"
)

// unbacked is a bus address outside DRAM: DMA to or from it aborts.
const unbacked mem.Addr = 0x40000000

// submitPRP is submitIOF with an explicit PRP2.
func (r *rig) submitPRP(t *testing.T, slot int, sqBase mem.Addr, cid uint16, prp1, prp2 mem.Addr, lba uint64, flags byte) {
	t.Helper()
	sqe := make([]byte, SQESize)
	sqe[0] = CmdWrite
	putLE16(sqe[2:4], cid)
	putLE64(sqe[sqePRP1:sqePRP1+8], uint64(prp1))
	putLE64(sqe[sqePRP2:sqePRP2+8], uint64(prp2))
	putLE64(sqe[sqeSLBA:sqeSLBA+8], lba)
	sqe[sqeFlags] = flags
	r.m.Mem.MustWrite(sqBase+mem.Addr(slot*SQESize), sqe)
	r.c.MMIOWrite(0, SQDoorbell(1), 4, uint64(slot+1))
}

// snapshotCache deep-copies the dirty cache.
func snapshotCache(c *Ctrl) map[uint64][]byte {
	out := make(map[uint64][]byte, len(c.cache))
	for lba, b := range c.cache {
		out[lba] = append([]byte(nil), b...)
	}
	return out
}

// TestPRP2FaultLeavesMediaAndCacheIntact: a write whose second PRP page
// faults fails without touching the cache: no entry is added, replaced or
// evicted, and the staging buffer goes back to the free list. A direct
// (FUA) write has already landed its PRP1 half in media when PRP2 faults —
// a torn DMA, as on hardware — and leaves everything else alone.
func TestPRP2FaultLeavesMediaAndCacheIntact(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flags byte
	}{{"cached", 0}, {"direct", SqeFlagFUA}} {
		t.Run(tc.name, func(t *testing.T) {
			r, sqb, buf := cacheRig(t, 2)
			for lba := uint64(0); lba < 4; lba++ {
				r.c.SeedMedia(lba, fillPage(0x10+byte(lba)))
			}
			// Three cached writes into a two-block cache: LBA 0 is evicted,
			// LBAs 1 and 2 stay dirty, one buffer waits on the free list.
			for lba := uint64(0); lba < 3; lba++ {
				r.m.Mem.MustWrite(buf, fillPage(0xA0+byte(lba)))
				r.submitIO(t, 1, int(lba), sqb, CmdWrite, uint16(lba+1), buf, lba)
				r.m.Loop.RunFor(sim.Millisecond)
			}
			if r.c.DirtyBlocks() != 2 || len(r.c.cacheFree) != 1 {
				t.Fatalf("setup: dirty=%d free=%d, want 2 and 1", r.c.DirtyBlocks(), len(r.c.cacheFree))
			}
			var media [4][]byte
			for lba := range media {
				media[lba] = r.c.PeekMedia(uint64(lba))
			}
			cache := snapshotCache(r.c)
			faults, writes, evictions, fua := r.c.DMAFaults, r.c.WriteBlocks, r.c.CacheEvictions, r.c.FUAWrites

			// Rewrite dirty LBA 2 from the second half of a 0x77 page; the
			// block's second half would come from the unbacked PRP2.
			r.m.Mem.MustWrite(buf, fillPage(0x77))
			r.submitPRP(t, 3, sqb, 4, buf+BlockSize/2, unbacked, 2, tc.flags)
			r.m.Loop.RunFor(sim.Millisecond)

			if r.c.DMAFaults != faults+1 || r.c.WriteBlocks != writes ||
				r.c.CacheEvictions != evictions || r.c.FUAWrites != fua {
				t.Fatalf("counters: faults %d→%d writes %d→%d evictions %d→%d fua %d→%d",
					faults, r.c.DMAFaults, writes, r.c.WriteBlocks, evictions, r.c.CacheEvictions, fua, r.c.FUAWrites)
			}
			for lba := range media {
				want := media[lba]
				if tc.flags&SqeFlagFUA != 0 && lba == 2 {
					want = append(fillPage(0x77)[:BlockSize/2], media[2][BlockSize/2:]...)
				}
				if !bytes.Equal(r.c.PeekMedia(uint64(lba)), want) {
					t.Fatalf("media of LBA %d changed", lba)
				}
			}
			if got := snapshotCache(r.c); len(got) != len(cache) {
				t.Fatalf("cache holds %d blocks, want %d", len(got), len(cache))
			} else {
				for lba, b := range cache {
					if !bytes.Equal(got[lba], b) {
						t.Fatalf("cache entry for LBA %d changed", lba)
					}
				}
			}
			// No cache slot leaked: the buffers in use still number three,
			// and the next cached write evicts exactly one block.
			if n := len(r.c.cache) + len(r.c.cacheFree); n != 3 {
				t.Fatalf("%d cache buffers after the fault, want 3", n)
			}
			r.m.Mem.MustWrite(buf, fillPage(0xB3))
			r.submitIO(t, 1, 4, sqb, CmdWrite, 5, buf, 3)
			r.m.Loop.RunFor(sim.Millisecond)
			if r.c.DirtyBlocks() != 2 || r.c.CacheEvictions != evictions+1 ||
				len(r.c.cache)+len(r.c.cacheFree) != 3 {
				t.Fatalf("after the fault: dirty=%d evictions=%d buffers=%d",
					r.c.DirtyBlocks(), r.c.CacheEvictions-evictions, len(r.c.cache)+len(r.c.cacheFree))
			}
		})
	}
}

// TestCachedWriteAllocatesNothingOnceFull pins the cached write path: with
// the cache full, every write either evicts one block or overwrites a dirty
// one and reuses the freed buffer, and both PRP reads land in that buffer
// directly.
func TestCachedWriteAllocatesNothingOnceFull(t *testing.T) {
	r, _, buf := cacheRig(t, 4)
	// The writes cycle over 64 LBAs. Seed them so that no eviction is a
	// block's first write, which backs the block.
	for lba := uint64(0); lba < 64; lba++ {
		r.c.SeedMedia(lba, fillPage(byte(lba)))
	}
	buf2, ok := r.m.Alloc.AllocPages(1)
	if !ok {
		t.Fatal("oom")
	}
	r.m.Mem.MustWrite(buf, fillPage(0x3C))
	r.m.Mem.MustWrite(buf2, fillPage(0x3D))
	sqe := make([]byte, SQESize)
	sqe[sqeOpcode] = CmdWrite
	putLE64(sqe[sqePRP1:sqePRP1+8], uint64(buf+0x200))
	putLE64(sqe[sqePRP2:sqePRP2+8], uint64(buf2))
	lba := uint64(0)
	write := func() {
		putLE64(sqe[sqeSLBA:sqeSLBA+8], (lba/2)%64) // every second write overwrites
		lba++
		var engine sim.Duration
		if st := r.c.execRW(1, sqe, true, &engine); st != StatusOK {
			t.Fatalf("write status %d", st)
		}
	}
	for i := 0; i < 8; i++ {
		write() // fill the cache
	}
	// Eight writes per run, so even one allocation per eviction or per
	// overwrite shows in the per-run average.
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 8; i++ {
			write()
		}
	})
	if allocs != 0 {
		t.Fatalf("8 cached writes allocate %.0f times, want 0", allocs)
	}
	if r.c.CacheEvictions < 50 || len(r.c.cache)+len(r.c.cacheFree) > 5 {
		t.Fatalf("evictions=%d buffers=%d", r.c.CacheEvictions, len(r.c.cache)+len(r.c.cacheFree))
	}
	want := append(fillPage(0x3C)[0x200:], fillPage(0x3D)[:0x200]...)
	if !bytes.Equal(r.c.cache[((lba-1)/2)%64], want) {
		t.Fatal("cached block does not hold the PRP1+PRP2 payload")
	}
}

// TestIOStepAllocatesNothing pins an I/O queue's engine once warm: the SQ
// doorbell schedules the queue's bound step, which fetches each SQE, reads
// its block into host memory and posts the CQE from the controller's own
// buffers.
func TestIOStepAllocatesNothing(t *testing.T) {
	r, sqb, buf := mediaRig(t, DefaultParams())
	const entries, burst = 16, 4
	for slot := 0; slot < entries; slot++ {
		sqe := make([]byte, SQESize)
		sqe[sqeOpcode] = CmdRead
		putLE16(sqe[sqeCID:sqeCID+2], uint16(slot))
		putLE64(sqe[sqePRP1:sqePRP1+8], uint64(buf))
		putLE64(sqe[sqeSLBA:sqeSLBA+8], uint64(slot))
		r.m.Mem.MustWrite(sqb+mem.Addr(slot*SQESize), sqe)
	}
	tail := 0
	step := func() {
		r.c.MMIOWrite(0, CQDoorbell(1), 4, uint64(tail)) // the host consumed every CQE
		tail = (tail + burst) % entries
		r.c.MMIOWrite(0, SQDoorbell(1), 4, uint64(tail))
		r.m.Loop.RunFor(sim.Millisecond)
	}
	step()
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Fatalf("%d I/O steps allocate %.0f times, want 0", burst, allocs)
	}
	if r.c.ReadBlocks != 52*burst || r.c.CQOverruns != 0 {
		t.Fatalf("read %d blocks (%d CQ overruns), want %d", r.c.ReadBlocks, r.c.CQOverruns, 52*burst)
	}
}
