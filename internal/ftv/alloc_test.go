//go:build !race

package ftv_test

import (
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
