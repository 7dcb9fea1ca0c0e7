package main

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"pbox/internal/core"
)

// sortedCopy returns ds sorted ascending, as stats.Percentile needs it.
func sortedCopy(ds []time.Duration) []time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0 (no samples: the layer did no work in
// this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hist is a lock-free log-linear histogram of nanosecond values: 8
// sub-buckets per power of two, so a percentile read from it is within
// 12.5% of the true sample. It keeps per-event timings bounded in memory
// where a sample slice would grow with the run.
type hist struct {
	counts [64 * 8]atomic.Int64
}

func (h *hist) observe(ns int64) {
	if ns < 1 {
		ns = 1
	}
	e := 63 - bits.LeadingZeros64(uint64(ns)) // floor(log2 ns)
	sub := 0
	if e >= 3 {
		sub = int(ns>>(e-3)) & 7
	}
	h.counts[e*8+sub].Add(1)
}

// pct returns the upper edge of the bucket holding the p-th percentile.
func (h *hist) pct(p float64) float64 {
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(total)))
	var seen int64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			e, sub := i/8, i%8
			if e < 3 {
				return float64(int64(2) << e)
			}
			return float64((int64(8+sub+1) << (e - 3)))
		}
	}
	return 0
}

// histPct estimates the p-th percentile of the difference of two snapshots
// of a manager LatencyHistogram, interpolating linearly inside the bucket
// that holds the rank (the last, unbounded bucket reads as its lower edge).
func histPct(after, before core.LatencyHistogram, p float64) time.Duration {
	counts := make([]int64, len(after.Counts))
	var total int64
	for i := range counts {
		counts[i] = after.Counts[i]
		if i < len(before.Counts) {
			counts[i] -= before.Counts[i]
		}
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := p / 100 * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			var lo time.Duration
			if i > 0 {
				lo = after.Bounds[i-1]
			}
			if i >= len(after.Bounds) {
				return lo
			}
			hi := after.Bounds[i]
			return lo + time.Duration((rank-seen)/float64(c)*float64(hi-lo))
		}
		seen += float64(c)
	}
	return after.Bounds[len(after.Bounds)-1]
}
