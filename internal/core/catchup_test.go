package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// The cache keeps no record per addition: a stale entry catches up when
// it is next read, screening each graph added since its own reconciliation
// with that graph's forward row, read from the view.

// TestAddSumsWaitForColdestEntry pins the catch-up floor rule: additions
// and window turns cost the coldest (stalest) entry nothing until it is
// next read; that read tests every addition it has yet to see, and a
// later one only the additions after it — never one twice.
func TestAddSumsWaitForColdestEntry(t *testing.T) {
	dataset := testDataset(111, 10)
	extra := append(testDataset(112, 2), dataset[0], dataset[0]) // q embeds in the copies
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Window = 1 // admit (and turn) on every query
	})
	q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(113)), dataset[0], 4)
	if _, err := c.Execute(q, ftv.Subgraph); err != nil { // entry over 10 ids
		t.Fatal(err)
	}

	// Three lazy additions, each with a turn: no maintenance test runs.
	for i := 0; i < 3; i++ {
		if _, err := c.AddGraph(extra[i]); err != nil {
			t.Fatal(err)
		}
		turnNow(c)
		if got := c.Stats().MaintenanceTests; got != 0 {
			t.Fatalf("after lazy add %d: %d maintenance tests, want 0 (the entry waits to be read)", i, got)
		}
	}

	// An exact hit reconciles the entry across all three (SelfCheck
	// compares its answers with the uncached method)...
	res, err := c.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ExactHit || !res.Answers.Contains(len(dataset)+2) {
		t.Fatalf("exact=%v answers %v: want an exact hit answering with the added copy", res.ExactHit, res.Answers)
	}
	caughtUp := c.Stats().MaintenanceTests
	if caughtUp < 1 || caughtUp > 3 {
		t.Fatalf("%d maintenance tests catching up on 3 additions, want 1 to 3", caughtUp)
	}
	// ...so after the next addition the hit tests that one graph alone.
	gid, err := c.AddGraph(extra[3])
	if err != nil {
		t.Fatal(err)
	}
	if res, err = c.Execute(q, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	if !res.ExactHit || !res.Answers.Contains(gid) {
		t.Fatalf("exact=%v answers %v: want an exact hit answering with %d", res.ExactHit, res.Answers, gid)
	}
	if got := c.Stats().MaintenanceTests - caughtUp; got != 1 {
		t.Fatalf("%d maintenance tests after reconciliation + add, want 1", got)
	}
}

// TestAddSumsBoundedUnderSustainedAdds is the boundedness acceptance
// property for the cost of additions: over a sustained add/query stream
// each resident entry tests each added graph at most once, so a round's
// maintenance tests stay below the number of entries however long the
// stream runs, and answers stay exact (SelfCheck). Runs in both
// reconcileModes: with lazy=false each add is followed by reconcileNow
// before the round's queries.
func TestAddSumsBoundedUnderSustainedAdds(t *testing.T) {
	for _, lazy := range reconcileModes {
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			dataset := testDataset(121, 12)
			stream := append(testDataset(122, 27), dataset[0], dataset[1], dataset[2])
			c := testCache(t, dataset, func(cfg *Config) {
				cfg.Window = 2
			})
			rng := rand.New(rand.NewSource(123))
			pool := make([]*queryCase, 3)
			for i := range pool {
				pool[i] = &queryCase{g: gen.ExtractConnectedSubgraph(rng, dataset[i], 4), qt: ftv.Subgraph}
			}
			for round, g := range stream {
				before := c.Stats().MaintenanceTests
				if _, err := c.AddGraph(g); err != nil {
					t.Fatal(err)
				}
				if !lazy {
					if err := reconcileNow(c); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
				}
				// Touch every pool pattern: first executions admit, later
				// ones exact-hit and reconcile.
				for _, p := range pool {
					if _, err := c.Execute(p.g, p.qt); err != nil {
						t.Fatal(err)
					}
				}
				if n := c.Stats().MaintenanceTests - before; n > int64(len(pool)) {
					t.Fatalf("round %d: %d maintenance tests for one addition and %d entries", round, n, len(pool))
				}
			}
			snap := c.Stats()
			if snap.DatasetAdds != int64(len(stream)) {
				t.Fatalf("adds %d, want %d", snap.DatasetAdds, len(stream))
			}
			if snap.MaintenanceTests == 0 {
				t.Fatal("no addition was ever tested: the copies of the patterns' graphs did not arm")
			}
			for _, p := range pool {
				res, err := c.Execute(p.g, p.qt)
				if err != nil {
					t.Fatal(err)
				}
				if !res.ExactHit || res.Answers.Count() <= 1 {
					t.Fatalf("answers %v: want an exact hit answering with the added copies too", res.Answers)
				}
			}
		})
	}
}

// TestCatchUpComputesEachVectorOnce: catch-up reads an added graph's
// vector through the graph's memo (graph.Graph.Features), so the first
// entry to catch up over an addition computes it — the memo's one
// allocation — and a second entry's catch-up over the same addition
// computes none: it allocates exactly what a repeat of it allocates. The
// addition is a lone vertex, which every entry's key refutes, so a
// catch-up allocates its grown answer set and, the first time, the vector.
func TestCatchUpComputesEachVectorOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is distorted under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dataset := testDataset(121, 10)
	c := testCache(t, dataset, func(cfg *Config) { cfg.Window = 1 })
	rng := rand.New(rand.NewSource(122))
	for i := 0; i < 2; i++ {
		if _, err := c.Execute(gen.ExtractConnectedSubgraph(rng, dataset[i], 4), ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
	turnNow(c)
	entries := c.published.Load().all
	if len(entries) != 2 {
		t.Fatalf("%d resident entries, want 2", len(entries))
	}
	if _, err := c.AddGraph(graph.MustNew([]graph.Label{0}, nil)); err != nil {
		t.Fatal(err)
	}
	view := c.method.View()
	mallocs := func(e *Entry) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.patchedAnswers(e, e.Answers(), view)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	first, firstAgain := mallocs(entries[0]), mallocs(entries[0])
	second, secondAgain := mallocs(entries[1]), mallocs(entries[1])
	t.Logf("first entry's catch-up %d allocs, then %d; second entry's %d, then %d", first, firstAgain, second, secondAgain)
	if first != firstAgain+1 {
		t.Errorf("the first catch-up over the addition allocates %d more than its repeat, want 1 (the vector)", first-firstAgain)
	}
	if second != secondAgain {
		t.Errorf("the second entry's catch-up allocates %d, its repeat %d: it computed the vector again", second, secondAgain)
	}
	if got := c.Stats().MaintenanceTests; got != 0 {
		t.Errorf("%d maintenance tests, want 0: the keys refute a lone vertex", got)
	}
}
