package trace

import (
	"math"
	"sort"
	"testing"
	"unsafe"

	"sud/internal/sim"
)

func TestHistIndexValueMonotone(t *testing.T) {
	last := -1
	for _, d := range []sim.Duration{0, 1, 63, 64, 65, 127, 128, 1000, 4096, 1 << 20, 1 << 30, 1 << 34, 1 << 40} {
		idx := histIndex(d)
		if idx < last {
			t.Fatalf("histIndex not monotone at %d: %d < %d", d, idx, last)
		}
		last = idx
		if d <= sim.Duration(1)<<histMaxExp {
			ub := histValue(idx)
			if ub < d {
				t.Fatalf("bucket upper bound %d below sample %d", ub, d)
			}
		}
	}
	if histIndex(-5) != 0 {
		t.Fatalf("negative duration should clamp to bucket 0")
	}
}

func TestHistPercentileError(t *testing.T) {
	// Compare against an exact sort over a deterministic pseudo-random set.
	var h Hist
	var vals []float64
	x := uint64(12345)
	for i := 0; i < 5000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		d := sim.Duration(x % 2_000_000) // 0..2ms in ns
		h.Record(d)
		vals = append(vals, float64(d))
	}
	sort.Float64s(vals)
	for _, p := range []float64{0.5, 0.9, 0.99} {
		i := int(p*float64(len(vals))+0.5) - 1
		exact := vals[i]
		got := float64(h.Percentile(p))
		if exact > 0 && math.Abs(got-exact)/exact > 0.02 {
			t.Fatalf("p%.0f: hist %v vs exact %v (>2%% off)", p*100, got, exact)
		}
		if got < exact {
			t.Fatalf("p%.0f: hist %v under-reports exact %v", p*100, got, exact)
		}
	}
}

func TestHistSubMerge(t *testing.T) {
	var a, b, second Hist
	for i := 1; i <= 100; i++ {
		a.Record(sim.Duration(i * 1000))
		second.Record(sim.Duration(i * 2000))
	}
	snap := a.Clone()
	p50 := snap.Percentile(0.50)
	for i := 1; i <= 100; i++ {
		a.Record(sim.Duration(i * 2000))
	}
	// A snapshot that shared a's buckets would move with the second batch.
	if snap.Count() != 100 || snap.Percentile(0.50) != p50 {
		t.Fatalf("snapshot moved: count %d p50 %v, want 100 and %v", snap.Count(), snap.Percentile(0.50), p50)
	}
	win := a.Sub(&snap)
	if win.Count() != 100 {
		t.Fatalf("window count = %d, want 100", win.Count())
	}
	if win.Percentile(0.50) != second.Percentile(0.50) {
		t.Fatalf("window p50 = %v, want the second batch's %v", win.Percentile(0.50), second.Percentile(0.50))
	}
	b.Merge(&snap)
	b.Merge(&win)
	if b.Count() != a.Count() || b.Percentile(0.99) != a.Percentile(0.99) {
		t.Fatalf("merge of snapshot+window != full hist")
	}
	b.Reset()
	if b.Count() != 0 || b.Mean() != 0 {
		t.Fatalf("reset left samples behind")
	}
}

func TestHistRecordAllocatesNothing(t *testing.T) {
	var h Hist
	h.Record(512)
	d := sim.Duration(512)
	// Every sample lands in the octave [512, 1024) the first one opened.
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(d)
		d = 512 + (d+37)%512
	}); n != 0 {
		t.Fatalf("Record into a seen octave allocates %.1f times", n)
	}
}

func TestHistSize(t *testing.T) {
	if s := unsafe.Sizeof(Hist{}); s > 256 {
		t.Fatalf("empty Hist is %d B, want at most 256", s)
	}
}

// refHist is the dense histogram Hist replaced: every bucket in one array,
// snapshots by assignment. FuzzHist holds Hist to it.
type refHist struct {
	counts [histBuckets + 1]uint64
	n      uint64
	sum    sim.Duration
}

func (h *refHist) Record(d sim.Duration) {
	h.counts[histIndex(d)]++
	h.n++
	h.sum += d
}

func (h *refHist) Mean() sim.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / sim.Duration(h.n)
}

func (h *refHist) Percentile(p float64) sim.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(p*float64(h.n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets)
}

func (h *refHist) Sub(prev *refHist) refHist {
	var d refHist
	for i := range h.counts {
		d.counts[i] = h.counts[i] - prev.counts[i]
	}
	d.n = h.n - prev.n
	d.sum = h.sum - prev.sum
	return d
}

func (h *refHist) Merge(o *refHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// FuzzHist runs a random sequence of Record, Clone, Merge, Sub against a
// clone and Reset over a few histograms and the same sequence over
// refHists, then requires the same Count, Mean and Percentile(k/n) for
// every rank k. Clones, windows and merge receivers are checked after the
// sequence goes on touching their sources, so shared bucket storage shows.
func FuzzHist(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 1, 1, 200, 3, 14, 0, 2, 0, 3, 0, 4})
	f.Add([]byte{0, 0xff, 0xff, 0x2f, 5, 0, 1, 0, 0, 0x80, 9, 0x22, 4, 0})
	f.Add([]byte{0, 0x30, 0xff, 0xff, 0, 0x10, 1, 2, 1, 0, 0x21, 0x40, 0, 3, 0x10, 0, 6, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const live, slots, maxCount, maxOps = 3, 4, 64, 64
		var h [live + slots]Hist
		var r [live + slots]refHist
		var src [slots]int // the live histogram each clone slot snapshots, -1 when stale
		for i := range src {
			src[i] = -1
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		for ops := 0; len(data) > 0 && ops < maxOps; ops++ {
			op, arg := next(), next()
			i, j := int(arg)%live, int(arg>>4)%(live+slots)
			switch op % 6 {
			case 0, 1: // Record: negative, 0, and past the 2^34 ns clamp
				if h[i].Count() >= maxCount {
					continue
				}
				c, x := next(), next()
				d := sim.Duration(x) << (c % 48)
				if c&0x80 != 0 {
					d = -d
				}
				h[i].Record(d)
				r[i].Record(d)
			case 2: // Clone into a slot
				s := int(arg>>4) % slots
				h[live+s], r[live+s] = h[i].Clone(), r[i]
				src[s] = i
			case 3: // Merge any histogram, itself included, into a live one
				if h[i].Count()+h[j].Count() > maxCount {
					continue
				}
				h[i].Merge(&h[j])
				r[i].Merge(&r[j])
			case 4: // Sub a live histogram's clone from it, into a slot
				s, w := int(arg>>4)%slots, int(arg>>6)%slots
				if src[s] != i {
					continue
				}
				h[live+w], r[live+w] = h[i].Sub(&h[live+s]), r[i].Sub(&r[live+s])
				src[w] = -1
			case 5: // Reset
				h[i].Reset()
				r[i] = refHist{}
				for s := range src {
					if src[s] == i {
						src[s] = -1
					}
				}
			}
		}
		for k := range h {
			got, want := &h[k], &r[k]
			n := got.Count()
			if n != want.n || got.Mean() != want.Mean() {
				t.Fatalf("hist %d: count %d mean %v, want %d and %v", k, n, got.Mean(), want.n, want.Mean())
			}
			for rank := uint64(1); rank <= n; rank++ {
				p := float64(rank) / float64(n)
				if g, w := got.Percentile(p), want.Percentile(p); g != w {
					t.Fatalf("hist %d: rank %d/%d is %v, want %v", k, rank, n, g, w)
				}
			}
		}
	})
}
