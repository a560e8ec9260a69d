package core

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// Allocation-regression budgets for the Execute hot paths (hot-path
// memory discipline, see doc.go). Each budget is a ceiling a little over
// the measured steady state (the miss paths: +10%), so the cheap
// regressions — an O(n) bitset clone or a per-query scratch slice costs
// tens of allocations per call — trip the test, while workload-dependent
// jitter (pool refills after a GC, slice growth on an unusually large
// candidate set) does not.
//
// Measure the current steady state with:
//
//	go test -bench 'BenchmarkExecute' -benchmem ./internal/core/
const (
	// allocBudgetExactHit covers Execute on a query already cached: the
	// probe copies into a stack buffer, crediting is two atomics, no clock
	// is read, and the Result is the one the entry's answer state shares
	// with every hit on it (answersAt.exact). Measured 0; the 1 covers the
	// first hit per state, which builds that Result (≤ 128 B,
	// TestResultFitsItsSizeClass). It was 1 while every hit built its own.
	allocBudgetExactHit = 1
	// allocBudgetMiss covers the full miss pipeline — filter, indexed hit
	// detection, verification, admission. Measured 22 allocs/op (23 while
	// an entry published its set inside a separately allocated
	// (set, epoch) pair, 31 while the hit candidates were appended to
	// fresh slices and ranked with sort.Slice, 37 while VF2 built a
	// label-degree summary of every fresh query, 42 while hit detection
	// also built a label vector).
	allocBudgetMiss = 25
	// allocBudgetSubSuperHit covers a miss that collects sub/super hits
	// and runs the S/S' algebra: the 120-molecule stream's few hits and
	// the many-hit stream's dozen (TestManyHitAllocBudget). Measured 27
	// and 32 allocs/op (28 and 33 while an entry's set was published inside
	// a (set, epoch) pair); no allocation is per hit. It was 53 on the first
	// stream while every hit allocated its HitEvent and the candidate and
	// hit lists grew per query (59 with the label-degree summary, 64 with
	// the label vector too), when the budget was 58.
	allocBudgetSubSuperHit = 36
)

// measureExecuteAllocs runs one query per AllocsPerRun iteration,
// advancing through stream so misses stay misses (stream members are
// pairwise non-isomorphic; see newBenchStreams).
func measureExecuteAllocs(t *testing.T, c *Cache, stream []*graph.Graph, runs int) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation accounting is distorted under the race detector")
	}
	if runs >= len(stream) {
		// AllocsPerRun calls f runs+1 times (one warmup); wrapping would
		// turn misses into exact hits and understate the average.
		runs = len(stream) - 1
	}
	i := 0
	return testing.AllocsPerRun(runs, func() {
		if _, err := c.Execute(stream[i], ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
		i++
	})
}

func TestExactHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is distorted under the race detector")
	}
	bs := newBenchStreams(t, 120, 1, nil)
	got := testing.AllocsPerRun(100, func() {
		res, err := bs.cache.Execute(bs.exact, ftv.Subgraph)
		if err != nil {
			t.Fatal(err)
		}
		if !res.ExactHit {
			t.Fatal("expected an exact hit")
		}
	})
	t.Logf("exact hit: %.1f allocs/op (budget %d)", got, allocBudgetExactHit)
	if got > allocBudgetExactHit {
		t.Errorf("exact-hit path allocates %.1f/op, budget %d — an O(n) copy crept back in", got, allocBudgetExactHit)
	}
}

// TestResultFitsItsSizeClass: the first exact hit on an answer state
// allocates the Result every later hit shares, which the allocator
// rounds up to a size class. 128 B is a class and the next is 144 B, so
// a field that pushes Result past 128 B costs every state the bigger
// class.
func TestResultFitsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Result{}); got > 128 {
		t.Errorf("Result is %d B, want ≤ 128 (the exact hit's size class)", got)
	}
}

func TestIndexedMissAllocBudget(t *testing.T) {
	bs := newBenchStreams(t, 120, 512, nil)
	got := measureExecuteAllocs(t, bs.cache, bs.misses, 200)
	t.Logf("indexed miss: %.1f allocs/op (budget %d)", got, allocBudgetMiss)
	if got > allocBudgetMiss {
		t.Errorf("indexed-miss path allocates %.1f/op, budget %d — per-query scratch must come from the pools", got, allocBudgetMiss)
	}
}

func TestSubSuperHitAllocBudget(t *testing.T) {
	bs := newBenchStreams(t, 120, 512, nil)
	got := measureExecuteAllocs(t, bs.cache, bs.subhits, 200)
	t.Logf("sub/super hit: %.1f allocs/op (budget %d)", got, allocBudgetSubSuperHit)
	if got > allocBudgetSubSuperHit {
		t.Errorf("sub/super-hit path allocates %.1f/op, budget %d", got, allocBudgetSubSuperHit)
	}
}

// TestManyHitAllocBudget: a miss that exploits a dozen hits on average
// stays within the sub/super budget — no allocation scales with the
// hits. The stream's queries all have ≥ largeQueryCandidates candidates,
// so they run at the large-query hit cap.
func TestManyHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is distorted under the race detector")
	}
	c, stream := newManyHitStream(t, 201)
	if len(stream) < 201 {
		t.Fatalf("many-hit stream has %d patterns, want 201", len(stream))
	}
	i, hits := 0, 0
	got := testing.AllocsPerRun(200, func() {
		res, err := c.Execute(stream[i], ftv.Subgraph)
		if err != nil {
			t.Fatal(err)
		}
		hits += res.SubHitCount() + res.SuperHitCount()
		i++
	})
	perQuery := float64(hits) / float64(i)
	t.Logf("many hits: %.1f hits/query, %.1f allocs/op (budget %d)", perQuery, got, allocBudgetSubSuperHit)
	if perQuery < 8 {
		t.Errorf("stream averages %.1f hits per query, want ≥ 8", perQuery)
	}
	if got > allocBudgetSubSuperHit {
		t.Errorf("many-hit path allocates %.1f/op, budget %d — a per-hit allocation crept in", got, allocBudgetSubSuperHit)
	}
}

// TestHelperAllocBudget: the helpers the miss path runs per candidate or
// per entry allocate nothing — the cost cells read and written around
// verification, the containment screen in front of every q↔h and
// catch-up test (an entry's row decoded into pooled scratch), the benefit
// ranking of the hit candidates and the crediting of each hit.
func TestHelperAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is distorted under the race detector")
	}
	c := &Cache{policy: NewHD()}
	costs := []costSample{{gid: 1, dur: 500}, {gid: 2, dur: 700}}
	view := ftv.NewGGSXMethod(testDataset(1, 1), 3).View()
	g := view.Graph(0)
	row := walkedRow(view, g)
	d := row.Decode()
	defer d.Release()
	cands := make([]*Entry, 32)
	for i := range cands {
		cands[i] = rankEntry(len(cands)-i, i%5)
	}
	ranked := make([]rankedCandidate, 0, len(cands))
	var ev HitEvent
	credit := hitCredit{h: cands[0], kind: SubHit, saved: 3, cost: 1500}
	cases := []struct {
		name string
		fn   func()
	}{
		{"estimatedMeanCost", func() { c.estimatedMeanCost() }},
		{"estimatedCost", func() { c.estimatedCost(0); c.estimatedCost(1) }},
		{"emaAdd", func() { emaAdd(&c.globalVal, globalCostAlpha, 300) }},
		{"recordCosts", func() { c.recordCosts(costs) }},
		{"screen", func() { screenIn(g, &d, g, row); screenHolds(g, &d, g, row) }}, // passes the key and the tail: reads the row
		{"Decode", func() { d := row.Decode(); d.In(row); d.Release() }},           // decodes into pooled scratch
		{"rankCandidates", func() { ranked = rankCandidates(rankView, cands, true, ranked) }},
		{"creditHit", func() {
			c.mu.Lock()
			c.creditHit(&ev, credit, 7)
			c.mu.Unlock()
		}},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(100, tc.fn); got != 0 {
			t.Errorf("%s allocates %.1f/op, budget 0", tc.name, got)
		}
	}
}

// TestStarQueryAllocatesLittle: a one-label star with 2 000 leaves, run as
// a subgraph and as a supergraph query on a GGSX method over 500
// molecules, allocates under 1 MB in all, though it has ~4 × 10⁶ label
// paths: the miss enumerates them once, in the filter's walk, which
// counts into one array by trie node. The two GCs first empty the pools,
// so pooled scratch that a star would grow counts.
func TestStarQueryAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is distorted under the race detector")
	}
	dataset := gen.Molecules(rand.New(rand.NewSource(2018)), 500, gen.DefaultMoleculeConfig())
	c := MustNew(ftv.NewGGSXMethod(dataset, 3), DefaultConfig())
	b := graph.NewBuilder(2001) // every vertex label 0
	for v := 1; v <= 2000; v++ {
		b.AddEdge(0, v)
	}
	star := b.MustBuild()
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, qt := range []ftv.QueryType{ftv.Subgraph, ftv.Supergraph} {
		if _, err := c.Execute(star, qt); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("star queries allocated %d B", got)
	if got >= 1<<20 {
		t.Errorf("a 2 000-leaf star allocates %d B over both query types, budget 1 MB", got)
	}
}
