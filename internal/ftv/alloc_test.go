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
// one chunk each of the forward rows and blooms. Measured 426.4 allocs
// and 45 555 B per insert with packed posting lists (457.2 allocs and
// 45 310 B with lists of 64-byte blocks, 45 764 B before forward rows
// were packed); each budget is the measure plus ≤ 5 %.
const (
	allocBudgetInsert = 447
	byteBudgetInsert  = 47_500
)

func TestWithGraphAllocBudget(t *testing.T) {
	bi, adds := benchIndex(), benchAdds()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	chain := func() {
		var f ftv.Filter = bi.index
		for i, g := range adds {
			f = f.WithGraph(len(bi.dataset)+i, g)
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

// TestGGSXIndexBytesTracksHeap holds the byte model to the heap: the
// 5 000-molecule index, built between two reads of HeapAlloc each after
// two GCs (the second empties the walk pool's victim cache), must be
// charged at least 90 % of the heap it grew. The rest is size-class
// rounding and the slack of children arrays grown by appends, which the
// model leaves out so that an index grown by inserts and one built at
// once report the same bytes.
func TestGGSXIndexBytesTracksHeap(t *testing.T) {
	dataset := benchIndex().dataset
	var before, after runtime.MemStats
	read := func(m *runtime.MemStats) {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(m)
	}
	read(&before)
	x := ftv.NewGGSX(dataset, 3)
	read(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	ratio := float64(x.IndexBytes()) / float64(grown)
	t.Logf("IndexBytes %d B, heap growth %d B: %.3f", x.IndexBytes(), grown, ratio)
	if ratio < 0.9 {
		t.Errorf("IndexBytes charges %.3f of the heap the index holds, want ≥ 0.9", ratio)
	}
	runtime.KeepAlive(x)
}
