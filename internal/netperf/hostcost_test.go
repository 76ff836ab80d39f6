package netperf

import (
	"runtime"
	"slices"
	"testing"

	"sud/internal/hw"
	"sud/internal/sim"
)

// TestBootHostCost pins what booting the page-flip multi-flow Q=4 testbed
// (the net_bidi benchmark's) costs the host. DMA pages are backed as they
// are written, so the boot backs 16 KiB of guest memory, the rings its
// bring-up writes; backing every DMA page eagerly took 1,288 pages and
// 5.7 MiB. It allocates about 204 KiB, bounded at about 1.5x that, since
// latency histograms allocate only the octaves they record (352 KiB when
// each was a dense 14.5 KiB array; 585 KiB before the uchan rings lost
// their residency histograms and IO page-table entries shrank to one word).
func TestBootHostCost(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tb, err := NewMultiFlowTestbedFlip(4, hw.DefaultPlatform())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	backed, alloc := tb.M.Mem.Backed(), after.TotalAlloc-before.TotalAlloc
	t.Logf("boot: %d B backed, %d B allocated", backed, alloc)
	if backed > 24<<10 || alloc > 305<<10 {
		t.Fatalf("boot backed %d B (bound 24 KiB) and allocated %d B (bound 305 KiB)", backed, alloc)
	}
}

// TestSteadyStateHostCost pins the net_bidi benchmark's steady state: once
// warm, the page-flip multi-flow Q=4 testbed running 6 flows both ways
// allocates at most 4 B per frame. A cost paid per frame shows in every
// window, while one-time growth (a map's table doubling, a queue reaching a
// new high-water mark, a DMA chunk backed on first touch) lands in a few of
// them, so the pin is the cheapest of seven consecutive 20 ms windows. The
// page-flip RX grouping runs on stack arrays, the e1000e's deferred re-arm
// list is a ring, the ne2k card queues its frames in flight in one FIFO
// and parked senders reuse their list; a warm window costs under 0.01 B
// per frame, against about 40 B when those allocated. At the end at most
// 1 MiB of guest memory is backed: the 64 B frames in 2 KiB packet slots
// back about 672 KiB in 256 B chunks, where whole pages took 5.0 MiB.
func TestSteadyStateHostCost(t *testing.T) {
	const warm, window, windows = 30 * sim.Millisecond, 20 * sim.Millisecond, 7
	tb, err := NewMultiFlowTestbedFlip(4, hw.DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	var alloc, frames [windows + 1]uint64
	mark := func(i int) func() {
		return func() {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			alloc[i] = ms.TotalAlloc
			frames[i] = tb.EthRemote.SinkPkts + tb.Ne2kRemote.SinkPkts
			for q := 0; q < tb.Queues; q++ {
				frames[i] += tb.EthIfc.Queue(q).RxFrames
			}
		}
	}
	start := tb.M.Now() + warm + sim.Microsecond
	for i := range alloc {
		tb.M.Loop.At(start+sim.Duration(i)*window, mark(i))
	}
	opt := Options{Warmup: warm, Window: windows*window + sim.Millisecond, MinWindows: 1, MaxWindows: 1}
	if _, err := MultiFlowDir(tb, 6, DirBidi, opt); err != nil {
		t.Fatal(err)
	}
	per := make([]float64, windows)
	for i := range per {
		n := frames[i+1] - frames[i]
		if n == 0 {
			t.Fatalf("window %d moved no frames", i)
		}
		per[i] = float64(alloc[i+1]-alloc[i]) / float64(n)
	}
	t.Logf("B allocated per frame, per window: %.2f; %d B backed", per, tb.M.Mem.Backed())
	if least := slices.Min(per); least > 4 {
		t.Fatalf("%.1f B allocated per frame in the cheapest window (bound 4)", least)
	}
	if b := tb.M.Mem.Backed(); b > 1<<20 {
		t.Fatalf("%d B of guest memory backed (bound 1 MiB)", b)
	}
}
