package netperf

import (
	"runtime"
	"testing"

	"sud/internal/hw"
)

// TestBootHostCost pins what booting the page-flip multi-flow Q=4 testbed
// (the net_bidi benchmark's) costs the host. DMA pages are backed on first
// touch, so the boot backs a handful of guest pages and allocates about
// 0.58 MiB; backing them eagerly took 1,288 pages and 5.7 MiB.
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
	if pages > 8 || alloc > 1200<<10 {
		t.Fatalf("boot backed %d pages (bound 8) and allocated %d B (bound 1200 KiB)", pages, alloc)
	}
}
