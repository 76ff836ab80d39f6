package diskperf

import (
	"bytes"
	"runtime"
	"testing"

	"sud/internal/hw"
	"sud/internal/mem"
	"sud/internal/netperf"
	"sud/internal/sim"
)

// TestBootHostCost pins what booting a block testbed costs the host: the
// supervised Q=2 one (the blk_kill benchmark's) and the page-flip Q=4 one
// (blk_read's). DMA pages and NVMe media are backed as they are written, so
// a boot backs 1.5 KiB and 2.25 KiB of guest memory in 256 B chunks (20 KiB
// and 28 KiB when a page was backed whole on first touch; backing every
// DMA page eagerly took 263 pages and 17.2 MiB for the supervised
// testbed). A boot allocates about 47 KiB and 68 KiB, since latency
// histograms allocate only the octaves they record and the rings' pages
// are backed in chunks (64 KiB and 93 KiB when pages were backed whole;
// 96 KiB and 156 KiB when each histogram was a dense 14.5 KiB array;
// 235 KiB and 369 KiB before the uchan rings lost their residency
// histograms, IO page-table entries shrank to one word and the NVMe media
// index became backed per chunk). The allocation bounds are 60 KiB and
// 88 KiB, under what whole-page backing cost.
func TestBootHostCost(t *testing.T) {
	for _, tc := range []struct {
		name          string
		boot          func(hw.Platform) (*Testbed, error)
		backed, alloc uint64
	}{
		{"supervised-q2", func(p hw.Platform) (*Testbed, error) { return NewSupervisedTestbed(2, p) }, 8 << 10, 60 << 10},
		{"flip-q4", func(p hw.Platform) (*Testbed, error) { return NewTestbedFlip(ModeSUD, 4, p) }, 8 << 10, 88 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tb, err := tc.boot(hw.DefaultPlatform())
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			backed, alloc := tb.M.Mem.Backed(), after.TotalAlloc-before.TotalAlloc
			t.Logf("boot: %d B backed, %d B allocated", backed, alloc)
			if backed > tc.backed || alloc > tc.alloc {
				t.Fatalf("boot backed %d B (bound %d KiB) and allocated %d B (bound %d KiB)",
					backed, tc.backed>>10, alloc, tc.alloc>>10)
			}
		})
	}
}

// TestRespawnHostCost pins what one kill→respawn of the idle supervised Q=2
// testbed costs the host: the new incarnation's uchan rings, IO page tables
// and pools. It measures about 29 KiB a respawn, bounded at 42 KiB, against
// 47 KiB when every page the new incarnation touched was backed whole and
// 154 KiB before the uchan residency histograms went and page-table entries
// shrank to one word.
func TestRespawnHostCost(t *testing.T) {
	tb, err := NewSupervisedTestbed(2, hw.DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	respawn := func(i int) {
		tb.Sup.Proc().Kill()
		tb.M.Loop.RunFor(500 * sim.Millisecond)
		if tb.Sup.Restarts != i || tb.Sup.Quarantined {
			t.Fatalf("kill %d: %d restarts, quarantined %v", i, tb.Sup.Restarts, tb.Sup.Quarantined)
		}
	}
	respawn(1) // the first respawn also grows state every later one reuses
	const kills = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 2; i <= kills+1; i++ {
		respawn(i)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / kills
	t.Logf("respawn: %d B allocated", per)
	if per > 42<<10 {
		t.Fatalf("a respawn allocated %d B (bound 42 KiB)", per)
	}
}

// TestKillsLeakNoVectorOrPage kills the supervised driver 1,000 times, 500
// ms apart. Every kill must respawn: the dead incarnation's interrupt vector
// and DMA pages come back, so neither the vector nor the page high-water
// mark moves, and a read succeeds at the end. (With the vector leaked, the
// 224th respawn found no vector and the device was quarantined.)
func TestKillsLeakNoVectorOrPage(t *testing.T) {
	tb, err := NewSupervisedTestbed(2, hw.DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	vecs, pages := tb.M.Vec.HighWater(), tb.M.Alloc.HighWater()
	const kills = 1000
	for i := 1; i <= kills; i++ {
		tb.Sup.Proc().Kill()
		tb.M.Loop.RunFor(500 * sim.Millisecond)
		if tb.Sup.Restarts != i || tb.Sup.Quarantined {
			t.Fatalf("kill %d: %d restarts, quarantined %v", i, tb.Sup.Restarts, tb.Sup.Quarantined)
		}
		if v, p := tb.M.Vec.HighWater(), tb.M.Alloc.HighWater(); v != vecs || p != pages {
			t.Fatalf("kill %d: vector high water %d → %d, page high water %d → %d", i, vecs, v, pages, p)
		}
	}
	want := bytes.Repeat([]byte{0x6C}, tb.Dev.Geom.BlockSize)
	tb.Ctrl.SeedMedia(7, want)
	ok := false
	if err := tb.Dev.ReadAt(7, func(data []byte, err error) { ok = err == nil && bytes.Equal(data, want) }); err != nil {
		t.Fatal(err)
	}
	tb.M.Loop.RunFor(sim.Millisecond)
	if !ok {
		t.Fatalf("read after %d kills failed", kills)
	}
}

// TestRespawnGetsZeroedPages: the kernel's write-slot pools of a dead
// incarnation held write payloads; the restarted incarnation is handed the
// same physical pages, and they read zero.
func TestRespawnGetsZeroedPages(t *testing.T) {
	tb, err := NewSupervisedTestbed(2, hw.DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xDB}, tb.Dev.Geom.BlockSize)
	for lba := uint64(0); lba < 8; lba++ {
		if err := tb.Dev.WriteAt(lba, payload, func(error) {}); err != nil {
			t.Fatal(err)
		}
	}
	tb.M.Loop.RunFor(sim.Millisecond)
	old := map[mem.Addr]bool{}
	for _, a := range tb.Sup.Proc().Blk.Pools() {
		for i := 0; i < a.Pages; i++ {
			old[a.Phys+mem.Addr(i*mem.PageSize)] = true
		}
	}
	tb.Sup.Proc().Kill()
	tb.M.Loop.RunFor(sim.Millisecond)
	if tb.Sup.Restarts != 1 {
		t.Fatalf("%d restarts", tb.Sup.Restarts)
	}
	reused := 0
	page := make([]byte, mem.PageSize)
	for _, a := range tb.Sup.Proc().Blk.Pools() {
		for i := 0; i < a.Pages; i++ {
			p := a.Phys + mem.Addr(i*mem.PageSize)
			if !old[p] {
				continue
			}
			reused++
			tb.M.Mem.MustRead(p, page)
			if !bytes.Equal(page, make([]byte, mem.PageSize)) {
				t.Fatalf("page %#x handed to the new incarnation holds the dead one's bytes", uint64(p))
			}
		}
	}
	if reused == 0 {
		t.Fatal("the new incarnation reused none of the dead one's slot-pool pages")
	}
}

// TestSteadyStateHostCost pins the block path's steady state: once warm,
// the host allocates at most 8 B per completed I/O on blk_read's testbed
// (page flip, Q=4, 16 jobs × 6 reads) and at most 0.25 B on blk_fsync's
// (64-block write cache, Q=4, 16 × 6 writes, a flush every 32 acks per
// job), over a fixed virtual window. Ring codecs, slot payloads,
// DecodeSlot's copies, the loaders' per-I/O callbacks, the block core's
// flush barriers and the proxy's in-flight barrier all reuse storage; the
// two measure about 1.3 B (guest DMA pages backed on first touch) and
// 0.03 B, against 245 and 213 B when all of those allocated, 1.7 B for
// blk_fsync while only its barriers did and 0.5 B while the proxy still
// allocated each barrier's state.
func TestSteadyStateHostCost(t *testing.T) {
	const warm, window = 20 * sim.Millisecond, 30 * sim.Millisecond
	for _, tc := range []struct {
		name  string
		bound float64
		boot  func() (*Testbed, error)
		run   func(*Testbed, netperf.Options) (Result, error)
	}{
		{"blk_read", 8, func() (*Testbed, error) { return NewTestbedFlip(ModeSUD, 4, hw.DefaultPlatform()) },
			func(tb *Testbed, opt netperf.Options) (Result, error) { return BlockIOPS(tb, 16, 6, opt) }},
		{"blk_fsync", 0.25, func() (*Testbed, error) { return NewTestbedWC(ModeSUD, 4, 64, hw.DefaultPlatform()) },
			func(tb *Testbed, opt netperf.Options) (Result, error) { return BlockIOPSWrite(tb, 16, 6, 32, opt) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb, err := tc.boot()
			if err != nil {
				t.Fatal(err)
			}
			// Back every block first, as a long-running device is: a
			// write's first touch of a block backs it on the host.
			seed := bytes.Repeat([]byte{0x3C}, tb.Dev.Geom.BlockSize)
			for lba := uint64(0); lba < tb.Dev.Geom.Blocks; lba++ {
				tb.Ctrl.SeedMedia(lba, seed)
			}
			var alloc, ios [2]uint64
			mark := func(i int) func() {
				return func() {
					var ms runtime.MemStats
					runtime.ReadMemStats(&ms)
					alloc[i] = ms.TotalAlloc
					for q := 0; q < tb.Dev.NumQueues(); q++ {
						ios[i] += tb.Dev.Queue(q).Completions
					}
				}
			}
			// The window opens just after the harness's own set-up for
			// it (its per-queue latency baselines).
			start := tb.M.Now()
			tb.M.Loop.At(start+warm+sim.Microsecond, mark(0))
			tb.M.Loop.At(start+warm+window, mark(1))
			if _, err := tc.run(tb, netperf.Options{Warmup: warm, Window: window, MinWindows: 1, MaxWindows: 1}); err != nil {
				t.Fatal(err)
			}
			n := ios[1] - ios[0]
			per := float64(alloc[1]-alloc[0]) / float64(n)
			t.Logf("%d I/Os completed, %.2f B allocated per I/O", n, per)
			if n == 0 || per > tc.bound {
				t.Fatalf("%.2f B allocated per completed I/O over %d I/Os (bound %g)", per, n, tc.bound)
			}
		})
	}
}
