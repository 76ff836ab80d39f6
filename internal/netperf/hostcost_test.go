package netperf

import (
	"runtime"
	"testing"

	"sud/internal/hw"
)

// TestBootHostCost pins what booting the page-flip multi-flow Q=4 testbed
// (the net_bidi benchmark's) costs the host. DMA pages are backed on first
// touch, so the boot backs a handful of guest pages; backing them eagerly
// took 1,288 pages and 5.7 MiB. It allocates about 351 KiB, bounded at
// about 1.5x that, since the uchan rings lost their residency histograms
// and IO page-table entries shrank to one word (585 KiB before).
func TestBootHostCost(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tb, err := NewMultiFlowTestbedFlip(4, hw.DefaultPlatform())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	pages, alloc := tb.M.Mem.PageCount(), after.TotalAlloc-before.TotalAlloc
	t.Logf("boot: %d backed pages, %d B allocated", pages, alloc)
	if pages > 8 || alloc > 528<<10 {
		t.Fatalf("boot backed %d pages (bound 8) and allocated %d B (bound 528 KiB)", pages, alloc)
	}
}
