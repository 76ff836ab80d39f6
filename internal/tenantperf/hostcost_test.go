package tenantperf

import (
	"runtime"
	"slices"
	"testing"

	"sud/internal/sim"
)

// TestBootHostCost pins what booting the tenant testbed (the kv
// benchmark's: 4 tenants x 32 connections on 4 queues, both drivers
// supervised) costs the host. DMA pages and NVMe media are backed on first
// touch, so the boot backs a handful of guest pages; backing them eagerly
// took 1,683 pages and 23.5 MiB. It allocates about 301 KiB, bounded at
// about 1.5x that, since latency histograms allocate only the octaves they
// record (544 KiB when each was a dense 14.5 KiB array; 954 KiB before the
// uchan rings lost their residency histograms, IO page-table entries
// shrank to one word and the NVMe media index became backed per chunk).
func TestBootHostCost(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tb, err := NewTestbed(Config{Mode: ModeSUD, Tenants: 4, Conns: 32, Queues: 4})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	pages, alloc := tb.M.Mem.PageCount(), after.TotalAlloc-before.TotalAlloc
	t.Logf("boot: %d backed pages, %d B allocated", pages, alloc)
	if pages > 22 || alloc > 452<<10 {
		t.Fatalf("boot backed %d pages (bound 22) and allocated %d B (bound 452 KiB)", pages, alloc)
	}
}

// TestSteadyStateHostCost pins the kv benchmark's steady state: once warm,
// the tenant testbed allocates at most 2 B per accepted reply. A cost paid
// per request shows in every window, while one-time growth (a map's table
// doubling, a pool reaching a new high-water mark, a DMA page backed on
// first touch) lands in a few of them, so the pin is the cheapest of seven
// consecutive 20 ms windows. The KV codecs encode into reused buffers, a
// PUT rewrites its key's stored value in place and write-through
// completions come from a free list; the cheapest window costs about
// 0.07 B per reply (the supervisors' periodic health checks), against
// 130 B when those allocated.
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
	t.Logf("B allocated per accepted reply, per window: %.2f", per)
	if least := slices.Min(per); least > 2 {
		t.Fatalf("%.1f B allocated per accepted reply in the cheapest window (bound 2)", least)
	}
}
