package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// Mutations stop nothing, and the window turns that mask their removals
// leave Len and Bytes exact (mutate.go).

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

// turnNow turns the window over the current dataset, as the append that
// fills it would.
func turnNow(c *Cache) {
	view := c.method.View()
	c.mu.Lock()
	c.turnWindow(view)
	c.mu.Unlock()
}

// TestMutationsKeepResidency: on a warm 200-entry cache, 20 add/remove
// pairs with a forced window turn after each, then 20 turns driven by
// queries, are all counted and timed, and Bytes() equals Σ Entry.Bytes()
// over the resident list after each phase. In both reconcileModes: with
// lazy=true the mutation phase runs no maintenance test (the turns mask
// removals without one); with lazy=false reconcileNow after each add
// runs them, so the saving is not skipped work.
func TestMutationsKeepResidency(t *testing.T) {
	for _, lazy := range reconcileModes {
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			dataset := testDataset(171, 60)
			extra := testDataset(172, 20)
			rng := rand.New(rand.NewSource(173))
			patterns := distinctPatterns(t, rng, dataset, 420)
			c := testCache(t, dataset, func(cfg *Config) {
				cfg.Capacity = 200
				cfg.Window = 10
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
				if !lazy {
					if err := reconcileNow(c); err != nil {
						t.Fatalf("after add %d: %v", i, err)
					}
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
			if tests := after.MaintenanceTests - before.MaintenanceTests; lazy && tests != 0 {
				t.Fatalf("mutations and turns ran %d maintenance tests, want none", tests)
			} else if !lazy && tests == 0 {
				t.Fatal("reconciling after each add ran no maintenance test: the saving must not be skipped work")
			}
			if after.MutationHoldNs == before.MutationHoldNs || after.WindowTurnNs == before.WindowTurnNs {
				t.Fatal("the mutations or the turns were not timed")
			}
			checkResidency(t, c, "after mutations")

			// Query-driven turns, with exact hits (which reconcile) between
			// them.
			before = c.Stats()
			for c.Stats().WindowTurns-before.WindowTurns < 20 {
				miss()
				if next%7 == 0 {
					if _, err := c.Execute(patterns[next-1], ftv.Subgraph); err != nil {
						t.Fatal(err)
					}
				}
			}
			after = c.Stats()
			if after.ExactHits == before.ExactHits || after.Evictions == before.Evictions {
				t.Fatal("workload too tame: no exact hit or no eviction")
			}
			turnNow(c) // a trailing exact hit may have swapped a set since the last turn
			checkResidency(t, c, "after turns")
		})
	}
}

// TestCostCellsSurviveGrowth: the per-graph cost cells keep their
// estimates, and their addresses, across every growth of the chunk
// directory; a cell past its end, such as a graph just added, reads as
// "no estimate"; and 1 000 adds grow it by whole chunks.
func TestCostCellsSurviveGrowth(t *testing.T) {
	dataset := testDataset(181, 12)
	c := testCache(t, dataset, func(cfg *Config) { cfg.SelfCheck = false })
	for gid := range dataset {
		c.costs.cell(gid).Store(math.Float64bits(1000 + float64(gid)))
	}
	first := c.costs.cell(0)
	tiny := graph.NewBuilder(2).SetLabels([]graph.Label{1, 2}).AddEdge(0, 1).MustBuild()
	for i := 0; i < 1000; i++ {
		gid, err := c.AddGraph(tiny)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.estimatedCost(gid); got != c.estimatedMeanCost() {
			t.Fatalf("add %d: fresh cell %d reads %v, want the mean", i, gid, got)
		}
		if i%2 == 0 {
			c.costs.cell(gid) // grow as a verification of the new graph would
		}
		if i == 500 {
			c.costs.cell(gid).Store(math.Float64bits(77)) // must survive later steps
		}
		if c.costs.cell(0) != first {
			t.Fatalf("add %d: cell 0 moved", i)
		}
		for g := range dataset {
			if got := c.estimatedCost(g); got != 1000+float64(g) {
				t.Fatalf("add %d: estimate of graph %d moved to %v", i, g, got)
			}
		}
	}
	if got := c.estimatedCost(len(dataset) + 500); got != 77 {
		t.Fatalf("estimate written mid-run reads %v after further growth", got)
	}
	if got, want := len(*c.costs.dir.Load()), (len(dataset)+1000+255)/256; got != want {
		t.Fatalf("%d chunks for %d graphs, want %d", got, len(dataset)+1000, want)
	}
}
