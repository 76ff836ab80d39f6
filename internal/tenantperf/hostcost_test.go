package tenantperf

import (
	"runtime"
	"slices"
	"testing"

	"sud/internal/sim"
)

// TestBootHostCost pins what booting the tenant testbed (the kv
// benchmark's: 4 tenants x 32 connections on 4 queues, both drivers
// supervised) costs the host. DMA pages and NVMe media are backed as they
// are written, so the boot backs about 18 KiB of guest memory (44 KiB when
// a page was backed whole on first touch; backing every DMA page eagerly
// took 1,683 pages and 23.5 MiB). It allocates about 277 KiB, bounded at
// 452 KiB, since latency histograms allocate only the octaves they record
// (544 KiB when each was a dense 14.5 KiB array; 954 KiB before the uchan
// rings lost their residency histograms, IO page-table entries shrank to
// one word and the NVMe media index became backed per chunk).
func TestBootHostCost(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tb, err := NewTestbed(Config{Mode: ModeSUD, Tenants: 4, Conns: 32, Queues: 4})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	backed, alloc := tb.M.Mem.Backed(), after.TotalAlloc-before.TotalAlloc
	t.Logf("boot: %d B backed, %d B allocated", backed, alloc)
	if backed > 32<<10 || alloc > 452<<10 {
		t.Fatalf("boot backed %d B (bound 32 KiB) and allocated %d B (bound 452 KiB)", backed, alloc)
	}
}

// TestSteadyStateHostCost pins the kv benchmark's steady state: once warm,
// the tenant testbed allocates at most 2 B per accepted reply. A cost paid
// per request shows in every window, while one-time growth (a map's table
// doubling, a pool reaching a new high-water mark, a DMA chunk backed on
// first touch) lands in a few of them, so the pin is the cheapest of seven
// consecutive 20 ms windows. The KV codecs encode into reused buffers, a
// PUT rewrites its key's stored value in place and write-through
// completions come from a free list; the cheapest window costs about
// 0.07 B per reply, against 130 B when those allocated. At the end at most
// 2.25 MiB of guest memory is backed: KV frames in 2 KiB packet slots back
// 256 B chunks, about 1.4 MiB with the block payload pages, where whole
// pages took 5.2 MiB.
func TestSteadyStateHostCost(t *testing.T) {
	const warm, window, windows = 20 * sim.Millisecond, 20 * sim.Millisecond, 7
	tb, err := NewTestbed(Config{Mode: ModeSUD, Tenants: 4, Conns: 32, Queues: 4})
	if err != nil {
		t.Fatal(err)
	}
	var alloc, replies [windows + 1]uint64
	mark := func(i int) func() {
		return func() {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			alloc[i] = ms.TotalAlloc
			for _, tl := range tb.Client.Tenants {
				replies[i] += tl.Replies
			}
		}
	}
	start := tb.M.Now() + warm + sim.Microsecond
	for i := range alloc {
		tb.M.Loop.At(start+sim.Duration(i)*window, mark(i))
	}
	if _, err := Run(tb, Options{Warmup: warm, Window: windows*window + sim.Millisecond, MinWindows: 1, MaxWindows: 1}); err != nil {
		t.Fatal(err)
	}
	per := make([]float64, windows)
	for i := range per {
		n := replies[i+1] - replies[i]
		if n == 0 {
			t.Fatalf("window %d accepted no replies", i)
		}
		per[i] = float64(alloc[i+1]-alloc[i]) / float64(n)
	}
	t.Logf("B allocated per accepted reply, per window: %.2f; %d B backed", per, tb.M.Mem.Backed())
	if least := slices.Min(per); least > 2 {
		t.Fatalf("%.1f B allocated per accepted reply in the cheapest window (bound 2)", least)
	}
	if b := tb.M.Mem.Backed(); b > 2304<<10 {
		t.Fatalf("%d B of guest memory backed (bound 2.25 MiB)", b)
	}
}
