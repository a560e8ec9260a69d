// Package stats provides the small statistics toolkit of GraphCache: the
// streaming aggregate behind the HD replacement policy's cost dispersion,
// and the fixed-width table and byte formatting of the demo commands'
// reports.
package stats

import (
	"fmt"
	"math"
)

// Agg is a streaming aggregate over float64 observations using Welford's
// algorithm: a numerically stable mean and variance. The zero value is
// ready to use.
type Agg struct {
	n        int64
	mean, m2 float64
}

// AddN records n observations of the same value x in O(1): the Welford
// merge of this aggregate with an n-fold constant one (whose own m2 is 0).
// n <= 0 is a no-op.
func (a *Agg) AddN(x float64, n int64) {
	if n <= 0 {
		return
	}
	total := a.n + n
	d := x - a.mean
	a.mean += d * float64(n) / float64(total)
	a.m2 += d * d * float64(a.n) * float64(n) / float64(total)
	a.n = total
}

// CV returns the coefficient of variation, the sample standard deviation
// over the absolute mean: 0 when the mean is 0 or fewer than two
// observations were recorded. The HD replacement policy uses the CV of
// per-graph verification cost to decide how much weight cost-awareness
// deserves.
func (a *Agg) CV() float64 {
	if a.mean == 0 || a.n < 2 {
		return 0
	}
	return math.Sqrt(a.m2/float64(a.n-1)) / math.Abs(a.mean)
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
