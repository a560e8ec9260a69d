package main

import (
	"math/bits"
	"slices"
)

// hist is a log-linear latency histogram over nanoseconds: every power of
// two is split into 128 equal sub-buckets, so a bucket is at most 0.79 %
// wide. internal/stats.Histogram is log₂ only and would quantise a median
// to a power of two.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// 42 octaves above the exact range cover values up to 2^48 ns (> 3 days).
	histBuckets = 42 * histSub
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - 1 - histSubBits
	idx := (shift+1)<<histSubBits | int(uint64(ns)>>uint(shift))&(histSub-1)
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histBounds returns the lower bound and width of bucket idx.
func histBounds(idx int) (lo, width float64) {
	if idx < histSub {
		return float64(idx), 1
	}
	shift := uint(idx>>histSubBits - 1)
	return float64(uint64(histSub+idx&(histSub-1)) << shift), float64(uint64(1) << shift)
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolating by rank
// inside the bucket that holds it; 0 when the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var before float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < before+float64(c) {
			lo, width := histBounds(i)
			return lo + width*(rank-before+0.5)/float64(c)
		}
		before += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}

// samples keeps every value of a rare event (a dataset mutation), so that
// its median is exact however few there are.
type samples []int64

func (s *samples) record(ns int64) { *s = append(*s, ns) }

// quantile returns the q-quantile in nanoseconds, interpolating between the
// two nearest ranks; 0 for no samples.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := slices.Clone(s)
	slices.Sort(sorted)
	rank := q * float64(len(sorted)-1)
	lo := int(rank)
	if lo+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := rank - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}
