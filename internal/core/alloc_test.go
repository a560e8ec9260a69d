package core

import (
	"testing"

	"graphcache/internal/ftv"
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
	// probe copies into a stack buffer, crediting is two atomics, the
	// answer is the published set itself, and the empty sets and the hit
	// list live inside the Result — the one allocation. Measured 1.
	allocBudgetExactHit = 2
	// allocBudgetMiss covers the full miss pipeline — filter, indexed hit
	// detection, verification, admission. Measured 83 allocs/op.
	allocBudgetMiss = 91
	// allocBudgetSubSuperHit covers a miss that collects a sub-case hit
	// and runs the S/S' algebra. Measured 91 allocs/op.
	allocBudgetSubSuperHit = 100
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
