// Package stats provides the small statistics toolkit used by GraphCache's
// Statistics Monitor/Manager and by the benchmark harness: streaming
// aggregates (Welford), duration histograms, exponential moving averages
// and a fixed-width table renderer for experiment reports.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Agg is a streaming aggregate over float64 observations using Welford's
// algorithm: numerically stable mean and variance plus min/max and sum.
// The zero value is ready to use.
type Agg struct {
	n          int64
	mean, m2   float64
	min, max   float64
	sum        float64
	hasExtrema bool
}

// Add records one observation.
func (a *Agg) Add(x float64) {
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
	a.sum += x
	a.extend(x)
}

// extend widens the extrema to include x.
func (a *Agg) extend(x float64) {
	if !a.hasExtrema || x < a.min {
		a.min = x
	}
	if !a.hasExtrema || x > a.max {
		a.max = x
	}
	a.hasExtrema = true
}

// AddN records n observations of the same value x in O(1): the Welford
// merge of this aggregate with an n-fold constant one (whose own m2 is 0),
// equal to n × Add(x) up to floating-point rounding. n <= 0 is a no-op.
func (a *Agg) AddN(x float64, n int64) {
	if n <= 0 {
		return
	}
	total := a.n + n
	d := x - a.mean
	a.mean += d * float64(n) / float64(total)
	a.m2 += d * d * float64(a.n) * float64(n) / float64(total)
	a.n = total
	a.sum += x * float64(n)
	a.extend(x)
}

// AddDuration records a duration in nanoseconds.
func (a *Agg) AddDuration(d time.Duration) { a.Add(float64(d.Nanoseconds())) }

// N returns the observation count.
func (a *Agg) N() int64 { return a.n }

// Sum returns the sum of observations.
func (a *Agg) Sum() float64 { return a.sum }

// Mean returns the arithmetic mean (0 when empty).
func (a *Agg) Mean() float64 { return a.mean }

// Var returns the sample variance (0 for fewer than two observations).
func (a *Agg) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std returns the sample standard deviation.
func (a *Agg) Std() float64 { return math.Sqrt(a.Var()) }

// CV returns the coefficient of variation (std/mean; 0 when mean is 0).
// The HD replacement policy uses the CV of per-graph verification cost to
// decide how much weight cost-awareness deserves.
func (a *Agg) CV() float64 {
	if a.mean == 0 {
		return 0
	}
	return a.Std() / math.Abs(a.mean)
}

// Min and Max return the extrema (0 when empty).
func (a *Agg) Min() float64 {
	if !a.hasExtrema {
		return 0
	}
	return a.min
}

// Max returns the largest observation (0 when empty).
func (a *Agg) Max() float64 {
	if !a.hasExtrema {
		return 0
	}
	return a.max
}

// EMA is an exponential moving average. The zero value is empty; the first
// observation initializes the average directly.
type EMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEMA returns an EMA with the given smoothing factor in (0, 1];
// values outside the range are clamped.
func NewEMA(alpha float64) *EMA {
	if alpha <= 0 {
		alpha = 0.1
	}
	if alpha > 1 {
		alpha = 1
	}
	return &EMA{alpha: alpha}
}

// Add records one observation.
func (e *EMA) Add(x float64) {
	if !e.init {
		e.value, e.init = x, true
		return
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
}

// Value returns the current average (0 when empty).
func (e *EMA) Value() float64 { return e.value }

// Initialized reports whether any observation was recorded.
func (e *EMA) Initialized() bool { return e.init }

// Histogram is a log₂-bucketed histogram of non-negative values (typically
// nanoseconds or test counts).
type Histogram struct {
	buckets [64]int64
	n       int64
}

// Add records one observation; negatives clamp to bucket 0.
func (h *Histogram) Add(x float64) {
	h.n++
	if x < 1 {
		h.buckets[0]++
		return
	}
	b := int(math.Log2(x))
	if b > 63 {
		b = 63
	}
	h.buckets[b]++
}

// N returns the observation count.
func (h *Histogram) N() int64 { return h.n }

// Quantile returns an upper bound for the q-quantile (q in [0,1]) based on
// bucket boundaries.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := int64(q * float64(h.n))
	if target >= h.n {
		target = h.n - 1
	}
	var cum int64
	for b, c := range h.buckets {
		cum += c
		if cum > target {
			return math.Pow(2, float64(b+1))
		}
	}
	return math.Inf(1)
}

// Percentile is a convenience helper over a raw sample slice (sorted copy).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	idx := int(p * float64(len(cp)-1))
	return cp[idx]
}

// FormatNanos renders a nanosecond count compactly ("1.24ms").
func FormatNanos(ns float64) string {
	return time.Duration(int64(ns)).Round(time.Microsecond).String()
}

// FormatBytes renders a byte count compactly ("3.2 MiB").
func FormatBytes(b int) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := int64(unit), 0
	for n := int64(b) / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(b)/float64(div), "KMGTPE"[exp])
}
