package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// The stop-the-world passes do work proportional to what changed, never
// to what is cached (mutate.go). These tests pin the two places that rule
// used to be broken: every add and remove rehashed every cached answer
// set, and every add reallocated the whole cost-cell array.

// distinctPatterns extracts n pairwise non-isomorphic (by WL fingerprint)
// patterns from the dataset, so executing them in order is n misses.
func distinctPatterns(tb testing.TB, rng *rand.Rand, dataset []*graph.Graph, n int) []*graph.Graph {
	tb.Helper()
	seen := map[graph.Fingerprint]bool{}
	var out []*graph.Graph
	for i := 0; len(out) < n && i < 200*n; i++ {
		g := gen.ExtractConnectedSubgraph(rng, dataset[i%len(dataset)], 3+rng.Intn(9))
		if fp := g.WLFingerprint(3); !seen[fp] {
			seen[fp] = true
			out = append(out, g)
		}
	}
	if len(out) < n {
		tb.Fatalf("found %d distinct patterns, want %d", len(out), n)
	}
	return out
}

// turnNow turns the window as the append that fills it would.
func turnNow(c *Cache) {
	tok := c.dsMu.RLock()
	c.windowMu.Lock()
	c.turnWindow()
	c.windowMu.Unlock()
	c.dsMu.RUnlock(tok)
}

// TestMutationHashesOnlyTheDelta: on a warm 200-entry cache, 20 add/remove
// pairs and 20 forced window turns hash no answer set at all, and 20 turns
// driven by queries hash exactly one set per non-exact query — the one
// Execute hashes before it takes any lock.
func TestMutationHashesOnlyTheDelta(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			dataset := testDataset(171, 60)
			extra := testDataset(172, 20)
			rng := rand.New(rand.NewSource(173))
			patterns := distinctPatterns(t, rng, dataset, 420)
			c := testCache(t, dataset, func(cfg *Config) {
				cfg.Capacity = 200
				cfg.Window = 10
				cfg.LazyReconcile = lazy
			})
			next := 0
			miss := func() {
				if _, err := c.Execute(patterns[next], ftv.Subgraph); err != nil {
					t.Fatal(err)
				}
				next++
			}
			for c.Len() < 200 {
				miss()
			}
			checkResidency(t, c, "warm")

			before := c.Stats()
			for i, g := range extra {
				gid, err := c.AddGraph(g)
				if err != nil {
					t.Fatal(err)
				}
				// Alternate between removing the graph just added and an
				// original one, so removals hit both many and few entries.
				if i%2 == 0 {
					gid = i
				}
				if err := c.RemoveGraph(gid); err != nil {
					t.Fatal(err)
				}
				turnNow(c)
			}
			after := c.Stats()
			if after.DatasetAdds-before.DatasetAdds != 20 || after.DatasetRemoves-before.DatasetRemoves != 20 ||
				after.WindowTurns-before.WindowTurns != 20 {
				t.Fatalf("drove %d adds, %d removes, %d turns; want 20 each",
					after.DatasetAdds-before.DatasetAdds, after.DatasetRemoves-before.DatasetRemoves, after.WindowTurns-before.WindowTurns)
			}
			if d := after.SetRehashes - before.SetRehashes; d != 0 {
				t.Fatalf("%d answer sets rehashed inside AddGraph, RemoveGraph or turnWindow; want 0", d)
			}
			if !lazy && after.MaintenanceTests == before.MaintenanceTests {
				t.Fatal("eager adds ran no maintenance test: the saving must not be skipped work")
			}
			if after.MutationHoldNs == before.MutationHoldNs || after.WindowTurnNs == before.WindowTurnNs {
				t.Fatal("the stopped world was not timed")
			}
			checkResidency(t, c, "after mutations")

			// Query-driven turns: the only hashes are the admissions'.
			before = c.Stats()
			for c.Stats().WindowTurns-before.WindowTurns < 20 {
				miss()
				if next%7 == 0 { // exact hits and lazy reconciliation hash nothing
					if _, err := c.Execute(patterns[next-1], ftv.Subgraph); err != nil {
						t.Fatal(err)
					}
				}
			}
			after = c.Stats()
			staged := (after.Queries - after.ExactHits) - (before.Queries - before.ExactHits)
			if d := after.SetRehashes - before.SetRehashes; d != staged {
				t.Fatalf("%d answer sets rehashed across %d staged queries; want one each", d, staged)
			}
			if after.ExactHits == before.ExactHits || after.Evictions == before.Evictions {
				t.Fatal("workload too tame: no exact hit or no eviction")
			}
			checkResidency(t, c, "after turns")
		})
	}
}

// TestCostCellsSurviveGrowth: the per-graph cost cells keep their
// estimates across every regrowth, new cells read as "no estimate", and
// 1 000 consecutive adds allocate O(log) backing arrays, not one each.
func TestCostCellsSurviveGrowth(t *testing.T) {
	dataset := testDataset(181, 12)
	c := testCache(t, dataset, func(cfg *Config) { cfg.SelfCheck = false })
	for gid := range dataset {
		c.costVal[gid].Store(math.Float64bits(1000 + float64(gid)))
	}
	tiny := graph.NewBuilder(2).SetLabels([]graph.Label{1, 2}).AddEdge(0, 1).MustBuild()
	arrays := 0
	var last *atomic.Uint64
	for i := 0; i < 1000; i++ {
		gid, err := c.AddGraph(tiny)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.costVal) != gid+1 {
			t.Fatalf("add %d: %d cost cells for %d graphs", i, len(c.costVal), gid+1)
		}
		if first := &c.costVal[0]; first != last {
			arrays++
			last = first
			// A growth step: every estimate must read the same after it.
			for g := range dataset {
				if got := c.estimatedCost(g); got != 1000+float64(g) {
					t.Fatalf("add %d: estimate of graph %d moved to %v", i, g, got)
				}
			}
		}
		if got := c.estimatedCost(gid); got != c.estimatedMeanCost() {
			t.Fatalf("add %d: fresh cell %d reads %v, want the mean", i, gid, got)
		}
		if i == 500 {
			c.costVal[gid].Store(math.Float64bits(77)) // must survive later steps
		}
	}
	if got := c.estimatedCost(len(dataset) + 500); got != 77 {
		t.Fatalf("estimate written mid-run reads %v after further growth", got)
	}
	if arrays > 10 { // 12 → 1 012 cells by doubling: 7 arrays
		t.Fatalf("1000 adds allocated %d backing arrays; want O(log)", arrays)
	}
}
