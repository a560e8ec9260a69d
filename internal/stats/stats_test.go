package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// twoPass returns the mean and CV of the observations x[i], each counted
// n[i] times, the textbook way: the mean first, then the squared
// deviations from it.
func twoPass(x []float64, n []int64) (mean, cv float64) {
	var total int64
	sum := 0.0
	for i := range x {
		total += n[i]
		sum += x[i] * float64(n[i])
	}
	mean = sum / float64(total)
	ss := 0.0
	for i := range x {
		ss += float64(n[i]) * (x[i] - mean) * (x[i] - mean)
	}
	if mean == 0 || total < 2 {
		return mean, 0
	}
	return mean, math.Sqrt(ss/float64(total-1)) / math.Abs(mean)
}

func TestAggBasics(t *testing.T) {
	var a Agg
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.AddN(x, 1)
	}
	if a.n != 8 || math.Abs(a.mean-5) > 1e-9 {
		t.Fatalf("n = %d, mean = %v, want 8 and 5", a.n, a.mean)
	}
	// Sample variance of that classic dataset is 32/7.
	if got, want := a.CV(), math.Sqrt(32.0/7)/5; math.Abs(got-want) > 1e-9 {
		t.Errorf("CV = %v, want %v", got, want)
	}
}

func TestAggEmptyAndSingle(t *testing.T) {
	var a Agg
	if a.CV() != 0 {
		t.Error("empty aggregate should have CV 0")
	}
	a.AddN(3, 1)
	if a.CV() != 0 || a.mean != 3 {
		t.Errorf("single observation: CV %v, mean %v, want 0 and 3", a.CV(), a.mean)
	}
}

// The CV divides by the mean's magnitude, so negating every observation
// leaves it unchanged; a zero mean reports 0 rather than dividing by it.
func TestAggNegativeValues(t *testing.T) {
	var pos, neg, zero Agg
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		pos.AddN(x, 1)
		neg.AddN(-x, 1)
	}
	if pos.CV() <= 0 || math.Abs(pos.CV()-neg.CV()) > 1e-12 {
		t.Errorf("CV %v of the negated observations, want %v", neg.CV(), pos.CV())
	}
	zero.AddN(-5, 1)
	zero.AddN(5, 1)
	if zero.mean != 0 || zero.CV() != 0 {
		t.Errorf("mean %v, CV %v, want 0 and 0", zero.mean, zero.CV())
	}
}

// AddN(x, n) agrees with a two-pass mean and CV over the same
// observations — mean and CV to 1e-9 relative — from an empty and from a
// populated aggregate, and ignores non-positive counts.
func TestAggAddNMatchesRepeatedAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	relEq := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	for trial := 0; trial < 200; trial++ {
		var bulk Agg
		var xs []float64
		var ns []int64
		for i := rng.Intn(4); i > 0; i-- { // single observations, possibly none
			x := rng.NormFloat64() * 1e4
			bulk.AddN(x, 1)
			xs, ns = append(xs, x), append(ns, 1)
		}
		for batch := 0; batch < 5; batch++ {
			x, n := rng.Float64()*1e6, int64(1+rng.Intn(5000))
			bulk.AddN(x, n)
			xs, ns = append(xs, x), append(ns, n)
		}
		bulk.AddN(123, 0)
		bulk.AddN(123, -3)
		var total int64
		for _, n := range ns {
			total += n
		}
		mean, cv := twoPass(xs, ns)
		if bulk.n != total || !relEq(bulk.mean, mean) || !relEq(bulk.CV(), cv) {
			t.Fatalf("trial %d: n/mean/cv %d/%v/%v, want %d/%v/%v", trial,
				bulk.n, bulk.mean, bulk.CV(), total, mean, cv)
		}
	}
}

// Property: Welford's mean and CV match the two-pass reference. quick
// draws float64s across the whole range, so each is folded into
// (-1e6, 1e6); the seed is fixed, so a pass is reproducible.
func TestQuickWelford(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) < 2 {
			return true
		}
		var a Agg
		ones := make([]int64, len(xs))
		for i := range xs {
			xs[i] = math.Mod(xs[i], 1e6)
			a.AddN(xs[i], 1)
			ones[i] = 1
		}
		mean, cv := twoPass(xs, ones)
		return math.Abs(a.mean-mean) < 1e-6*(1+math.Abs(mean)) &&
			math.Abs(a.CV()-cv) < 1e-6*(1+cv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
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
