package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestAggBasics(t *testing.T) {
	var a Agg
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if got := a.Mean(); math.Abs(got-5) > 1e-9 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Sample variance of that classic dataset is 32/7.
	if got := a.Var(); math.Abs(got-32.0/7) > 1e-9 {
		t.Errorf("Var = %v, want %v", got, 32.0/7)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", a.Min(), a.Max())
	}
	if a.Sum() != 40 {
		t.Errorf("Sum = %v", a.Sum())
	}
}

func TestAggEmptyAndSingle(t *testing.T) {
	var a Agg
	if a.Mean() != 0 || a.Var() != 0 || a.Min() != 0 || a.Max() != 0 || a.CV() != 0 {
		t.Error("empty aggregate should be all zeros")
	}
	a.Add(3)
	if a.Var() != 0 || a.Std() != 0 {
		t.Error("single observation has zero variance")
	}
	if a.Mean() != 3 || a.Min() != 3 || a.Max() != 3 {
		t.Error("single observation stats wrong")
	}
}

func TestAggNegativeValues(t *testing.T) {
	var a Agg
	a.Add(-5)
	a.Add(5)
	if a.Min() != -5 || a.Max() != 5 || a.Mean() != 0 {
		t.Errorf("stats with negatives: min=%v max=%v mean=%v", a.Min(), a.Max(), a.Mean())
	}
}

func TestAggDuration(t *testing.T) {
	var a Agg
	a.AddDuration(2 * time.Millisecond)
	if a.Mean() != 2e6 {
		t.Errorf("AddDuration mean = %v", a.Mean())
	}
}

// AddN(x, n) must agree with n × Add(x) — same count, extrema and sum,
// mean and CV to 1e-9 relative — from an empty and from a populated
// aggregate, and ignore non-positive counts.
func TestAggAddNMatchesRepeatedAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	relEq := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	for trial := 0; trial < 200; trial++ {
		var bulk, loop Agg
		for i := rng.Intn(4); i > 0; i-- { // shared prefix, possibly empty
			x := rng.NormFloat64() * 1e4
			bulk.Add(x)
			loop.Add(x)
		}
		for batch := 0; batch < 5; batch++ {
			x, n := rng.Float64()*1e6, int64(1+rng.Intn(5000))
			bulk.AddN(x, n)
			for i := int64(0); i < n; i++ {
				loop.Add(x)
			}
		}
		bulk.AddN(123, 0)
		bulk.AddN(123, -3)
		if bulk.N() != loop.N() || bulk.Min() != loop.Min() || bulk.Max() != loop.Max() {
			t.Fatalf("trial %d: n/min/max %d/%v/%v, want %d/%v/%v", trial,
				bulk.N(), bulk.Min(), bulk.Max(), loop.N(), loop.Min(), loop.Max())
		}
		if !relEq(bulk.Mean(), loop.Mean()) || !relEq(bulk.CV(), loop.CV()) || !relEq(bulk.Sum(), loop.Sum()) {
			t.Fatalf("trial %d: mean/cv/sum %v/%v/%v, want %v/%v/%v", trial,
				bulk.Mean(), bulk.CV(), bulk.Sum(), loop.Mean(), loop.CV(), loop.Sum())
		}
	}
}

// Property: Welford mean/var match the two-pass reference.
func TestQuickWelford(t *testing.T) {
	f := func(xs []float64) bool {
		var clean []float64
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var a Agg
		sum := 0.0
		for _, x := range clean {
			a.Add(x)
			sum += x
		}
		mean := sum / float64(len(clean))
		ss := 0.0
		for _, x := range clean {
			ss += (x - mean) * (x - mean)
		}
		wantVar := ss / float64(len(clean)-1)
		return math.Abs(a.Mean()-mean) < 1e-6*(1+math.Abs(mean)) &&
			math.Abs(a.Var()-wantVar) < 1e-6*(1+wantVar)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEMA(t *testing.T) {
	e := NewEMA(0.5)
	if e.Initialized() {
		t.Error("fresh EMA should not be initialized")
	}
	e.Add(10)
	if e.Value() != 10 {
		t.Errorf("first value = %v", e.Value())
	}
	e.Add(20)
	if e.Value() != 15 {
		t.Errorf("EMA = %v, want 15", e.Value())
	}
	// clamping
	if NewEMA(-1) == nil || NewEMA(2) == nil {
		t.Error("clamped constructors should work")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		h.Add(float64(rng.Intn(1000)))
	}
	if h.N() != 10000 {
		t.Fatalf("N = %d", h.N())
	}
	q50 := h.Quantile(0.5)
	// Median ≈ 500; bucket upper bound gives ≤ 1024 and ≥ 256.
	if q50 < 256 || q50 > 1024 {
		t.Errorf("median bucket bound %v out of range", q50)
	}
	if h.Quantile(0) <= 0 {
		t.Error("0-quantile should be positive bound")
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7}
	if Percentile(xs, 0) != 1 || Percentile(xs, 1) != 9 {
		t.Error("extreme percentiles wrong")
	}
	if Percentile(xs, 0.5) != 5 {
		t.Error("median wrong")
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
	// input must not be mutated
	if xs[0] != 5 {
		t.Error("Percentile mutated input")
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := FormatBytes(512); got != "512 B" {
		t.Errorf("FormatBytes(512) = %q", got)
	}
	if got := FormatBytes(2048); got != "2.0 KiB" {
		t.Errorf("FormatBytes(2048) = %q", got)
	}
	if got := FormatBytes(3 << 20); got != "3.0 MiB" {
		t.Errorf("FormatBytes(3MiB) = %q", got)
	}
	if got := FormatNanos(1.5e6); got != "1.5ms" {
		t.Errorf("FormatNanos = %q", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "policy", "speedup")
	tb.AddRow("LRU", 1.5)
	tb.AddRow("HD", 3.25)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "policy") || !strings.Contains(out, "speedup") {
		t.Error("missing headers")
	}
	if !strings.Contains(out, "1.50") || !strings.Contains(out, "3.25") {
		t.Errorf("missing float formatting:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestTableUntitled(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow(1)
	if strings.Contains(tb.String(), "==") {
		t.Error("untitled table should not render a title")
	}
}
