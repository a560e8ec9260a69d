//go:build !race

package ftv_test

import (
	"runtime"
	"testing"

	"graphcache/internal/ftv"
)

// allocBudgetCandidates is the ceiling on GGSX.Candidates in either
// direction: the returned set and its payload are the only allocations
// (measured 2), every piece of query-side scratch comes from the walk
// pool; the third covers a pool refill after a GC. The file is excluded
// under -race, whose instrumentation distorts the accounting (sync.Pool
// drops items at random there).
//
// Measure the steady state with:
//
//	go test -run '^$' -bench GGSXCandidates ./internal/ftv/
const allocBudgetCandidates = 3

func TestCandidatesAllocBudget(t *testing.T) {
	bi := benchIndex()
	for _, qt := range []ftv.QueryType{ftv.Subgraph, ftv.Supergraph} {
		pool, i := bi.pool[qt], 0
		got := testing.AllocsPerRun(500, func() {
			bi.index.Candidates(pool[i%len(pool)], qt)
			i++
		})
		t.Logf("%s candidates: %.1f allocs/op (budget %d)", qt, got, allocBudgetCandidates)
		if got > allocBudgetCandidates {
			t.Errorf("%s Candidates allocates %.1f/op, budget %d — per-query scratch must come from the walk pool", qt, got, allocBudgetCandidates)
		}
	}
}

// Budgets of one GGSX.WithGraph on the 5 000-molecule index, averaged
// over BenchmarkGGSXWithGraph's 256-add chain: the trie nodes on the new
// graph's paths, their children arrays, postings and bitmap blocks, and
// one chunk each of the forward rows and blooms. Measured 457.2 allocs
// and 45 310 B per insert (45 764 B before forward rows were packed);
// each budget is that plus ≤ 5 %.
const (
	allocBudgetInsert = 479
	byteBudgetInsert  = 47_500
)

func TestWithGraphAllocBudget(t *testing.T) {
	bi, adds := benchIndex(), benchAdds()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	chain := func() {
		var f ftv.Filter = bi.index
		for i, g := range adds {
			f = f.(ftv.InsertableFilter).WithGraph(len(bi.dataset)+i, g)
		}
	}
	chain() // fills the walk pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	chain()
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(len(adds))
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(adds))
	t.Logf("WithGraph: %.1f allocs, %.0f B per insert (budgets %d, %d)", allocs, bytes, allocBudgetInsert, byteBudgetInsert)
	if allocs > allocBudgetInsert || bytes > byteBudgetInsert {
		t.Errorf("an insert allocates %.1f times and %.0f B, budgets %d and %d B", allocs, bytes, allocBudgetInsert, byteBudgetInsert)
	}
}
