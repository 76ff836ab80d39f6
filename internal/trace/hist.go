package trace

import (
	"math/bits"

	"sud/internal/sim"
)

// Log-linear bucketing: exact for durations under 2^histSubBits ns, then 64
// sub-buckets per octave up to ~17 s, everything larger clamped into the
// last bucket. Worst-case relative quantization error is 1/64 ≈ 1.6%, well
// inside the ±15% benchgate bands and the recovery/failover SLO margins.
const (
	histSubBits = 6
	histSub     = 1 << histSubBits // sub-buckets per octave
	histMaxExp  = 34               // top octave: ~2^34 ns ≈ 17 s
	// histBuckets = linear region + one histSub-wide band per shift step.
	histBuckets = histSub + (histMaxExp-histSubBits)*histSub
	// histOctaves is the number of histSub-wide blocks bucket indices
	// 0..histBuckets fall into: the linear region, one block per shift
	// step and the clamp bucket's block.
	histOctaves = histBuckets>>histSubBits + 1
)

// histBlock is one octave's sub-bucket counts: bucket index i lives in
// block i>>histSubBits at slot i&(histSub-1).
type histBlock [histSub]uint64

// Hist is a log-linear latency histogram over sim.Duration. It allocates
// an octave's block of buckets on the first sample in that octave, so it
// costs what it records: 256 B empty, 512 B more per octave seen.
// Assignment copies the block pointers and so shares bucket storage with
// the original; take a snapshot with Clone and a window with Sub.
// Recording charges nothing and schedules nothing, so always-on histograms
// are invisible in virtual time.
type Hist struct {
	oct [histOctaves]*histBlock
	n   uint64
	sum sim.Duration
}

func histIndex(d sim.Duration) int {
	if d < histSub {
		if d < 0 {
			return 0
		}
		return int(d)
	}
	shift := bits.Len64(uint64(d)) - 1 - histSubBits
	idx := histSub*shift + int(uint64(d)>>uint(shift))
	if idx > histBuckets {
		return histBuckets
	}
	return idx
}

// histValue returns the upper bound of bucket idx — the value reported for
// percentiles landing in it (conservative: never under-reports latency).
func histValue(idx int) sim.Duration {
	if idx < histSub {
		return sim.Duration(idx)
	}
	shift := (idx - histSub) / histSub
	mant := histSub + (idx-histSub)%histSub
	return sim.Duration(mant+1)<<uint(shift) - 1
}

// block returns octave o's block, allocating it on first use.
func (h *Hist) block(o int) *histBlock {
	b := h.oct[o]
	if b == nil {
		b = new(histBlock)
		h.oct[o] = b
	}
	return b
}

// Record adds one latency sample.
func (h *Hist) Record(d sim.Duration) {
	i := histIndex(d)
	h.block(i >> histSubBits)[i&(histSub-1)]++
	h.n++
	h.sum += d
}

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 { return h.n }

// Mean returns the exact mean of recorded samples (sum is kept unbucketed).
func (h *Hist) Mean() sim.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / sim.Duration(h.n)
}

// Percentile returns the p-quantile (0..1) by nearest rank over buckets,
// 0 when empty. Matches the rank convention of the sort-based percentile
// it replaced: rank = round(p*n) clamped to [1, n].
func (h *Hist) Percentile(p float64) sim.Duration {
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
	for o, b := range &h.oct {
		if b == nil {
			continue
		}
		for i, c := range b {
			cum += c
			if cum >= rank {
				return histValue(o<<histSubBits + i)
			}
		}
	}
	return histValue(histBuckets)
}

// PercentileUS returns Percentile in microseconds.
func (h *Hist) PercentileUS(p float64) float64 {
	return float64(h.Percentile(p)) / float64(sim.Microsecond)
}

// Sub returns the window delta h − prev (for prev an earlier Clone of the
// same histogram). The delta gets its own blocks, only for octaves whose
// counts moved.
func (h *Hist) Sub(prev *Hist) Hist {
	var d Hist
	for o := range h.oct {
		a, p := h.oct[o], prev.oct[o]
		if a == p {
			continue
		}
		var w histBlock
		if a != nil {
			w = *a
		}
		if p != nil {
			for i := range w {
				w[i] -= p[i]
			}
		}
		if w != (histBlock{}) {
			*d.block(o) = w
		}
	}
	d.n = h.n - prev.n
	d.sum = h.sum - prev.sum
	return d
}

// Merge adds o's samples into h, allocating h's own block for each octave
// o has that h lacks.
func (h *Hist) Merge(o *Hist) {
	for k, b := range &o.oct {
		if b == nil {
			continue
		}
		dst := h.block(k)
		for i, c := range b {
			dst[i] += c
		}
	}
	h.n += o.n
	h.sum += o.sum
}

// Clone returns a copy of h that shares no bucket storage with it: a
// snapshot that later samples into h leave unchanged.
func (h *Hist) Clone() Hist {
	c := Hist{n: h.n, sum: h.sum}
	for o, b := range &h.oct {
		if b != nil {
			*c.block(o) = *b
		}
	}
	return c
}

// Reset clears the histogram, dropping its blocks.
func (h *Hist) Reset() { *h = Hist{} }
