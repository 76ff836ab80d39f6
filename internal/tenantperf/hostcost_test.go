package tenantperf

import (
	"runtime"
	"testing"
)

// TestBootHostCost pins what booting the tenant testbed (the kv
// benchmark's: 4 tenants x 32 connections on 4 queues, both drivers
// supervised) costs the host. DMA pages and NVMe media are backed on first
// touch, so the boot backs a handful of guest pages; backing them eagerly
// took 1,683 pages and 23.5 MiB. It allocates about 542 KiB, bounded at
// about 1.5x that, since the uchan rings lost their residency histograms,
// IO page-table entries shrank to one word and the NVMe media index became
// backed per chunk (954 KiB before).
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
	if pages > 22 || alloc > 812<<10 {
		t.Fatalf("boot backed %d pages (bound 22) and allocated %d B (bound 812 KiB)", pages, alloc)
	}
}
