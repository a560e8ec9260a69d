package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// churnStream drives a mixed query/mutation stream through the cache
// cur() names at each step (the drop-and-rebuild strategy swaps in a cold
// one from afterMutation), with SelfCheck armed (every answer is
// cross-checked byte-identical against the uncached method), mutating the
// dataset every `every` queries. The stream is add-heavy, as a dataset
// that mostly grows is: two additions (fresh molecules from the same
// generator family, so they land in cached answer sets) for every removal
// (a pseudo-random live gid). It returns the number of mutations applied
// and every query's answer set, rendered.
func churnStream(t *testing.T, cur func() *Cache, queries []gen.Query, extra []*graph.Graph, every int, afterMutation func(i int)) (int, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	mutations := 0
	nextExtra := 0
	answers := make([]string, 0, len(queries))
	for i, q := range queries {
		c := cur()
		res, err := c.Execute(q.G, q.Type)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		answers = append(answers, res.Answers.String())
		if (i+1)%every != 0 {
			continue
		}
		if mutations%3 != 2 && nextExtra < len(extra) {
			if _, err := c.AddGraph(extra[nextExtra]); err != nil {
				t.Fatalf("add after query %d: %v", i, err)
			}
			nextExtra++
		} else {
			// Remove a pseudo-random live graph.
			info := c.DatasetInfo()
			if info.Live <= 1 {
				continue
			}
			view := c.Method().View()
			gid := rng.Intn(info.Size)
			for view.Graph(gid) == nil {
				gid = (gid + 1) % info.Size
			}
			if err := c.RemoveGraph(gid); err != nil {
				t.Fatalf("remove %d after query %d: %v", gid, i, err)
			}
		}
		mutations++
		if afterMutation != nil {
			afterMutation(i)
		}
	}
	return mutations, answers
}

// TestMaintainedCacheBeatsDropAndRebuild is the reason the cache is
// maintained at all: over one add-heavy stream, keeping every cached
// answer set exact across mutations (query-time tests plus the
// maintenance tests additions cost) must be strictly cheaper than the
// only other sound strategy, an empty cache after every mutation — with
// byte-identical answers, query by query. Test counts, not wall time.
func TestMaintainedCacheBeatsDropAndRebuild(t *testing.T) {
	dataset := testDataset(51, 60)
	extra := testDataset(77, 8)
	w, err := gen.NewWorkload(rand.New(rand.NewSource(54)), dataset, gen.WorkloadConfig{
		Size: 160, Mixed: true, PoolSize: 50,
		ZipfS: 1.2, ChainFrac: 0.5, ChainLen: 3, MinEdges: 3, MaxEdges: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig() // nil Policy: every cache gets its own HD
	cfg.SelfCheck = true

	maintained := MustNew(ftv.NewGGSXMethod(dataset, 3), cfg)
	mutations, want := churnStream(t, func() *Cache { return maintained }, w.Queries, extra, 16, nil)
	if mutations < 6 {
		t.Fatalf("stream too tame: only %d mutations", mutations)
	}
	snap := maintained.Stats()
	if snap.MaintenanceTests == 0 {
		t.Error("no maintenance tests recorded: additions never reconciled")
	}
	maintainedBill := snap.TestsExecuted + snap.MaintenanceTests

	// The cold caches share one method, whose dataset therefore mutates
	// exactly as the maintained one's does; a dropped cache's own
	// mutation-time work is not billed to it.
	method := ftv.NewGGSXMethod(dataset, 3)
	cold := MustNew(method, cfg)
	var rebuildBill int64
	_, got := churnStream(t, func() *Cache { return cold }, w.Queries, extra, 16, func(int) {
		rebuildBill += cold.Stats().TestsExecuted
		cold = MustNew(method, cfg)
	})
	rebuildBill += cold.Stats().TestsExecuted

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: maintained %s, drop-and-rebuild %s", i, want[i], got[i])
		}
	}
	if maintainedBill >= rebuildBill {
		t.Fatalf("maintained cache did not win: %d sub-iso tests (%d query + %d maintenance) vs %d for drop-and-rebuild",
			maintainedBill, snap.TestsExecuted, snap.MaintenanceTests, rebuildBill)
	}
}

// reconcileModes are the two ways the churn suites pay for additions,
// named by the case ids they had when eager reconciliation was a Config
// mode. lazy=true leaves each stale entry to reconcile when a query next
// reads it. lazy=false calls reconcileNow after every add: eager
// reconciliation as a method call, so the suites drive both the hit path
// and the lock-free pass over the resident list.
var reconcileModes = []bool{false, true}

// reconcileNow reconciles every admitted entry to the current dataset
// (Entries runs reconcileResident) and returns an error unless each
// answer set equals a fresh uncached run of its pattern. The caller must
// be the only mutator, so that no mutation lands between the two reads.
func reconcileNow(c *Cache) error {
	for _, e := range c.Entries() {
		if want := c.Method().Run(e.Graph, e.Type).Answers; !e.Answers().Equal(want) {
			return fmt.Errorf("entry %d answers %v, uncached %v", e.ID, e.Answers(), want)
		}
	}
	return nil
}

// TestChurnEquivalence is the churn acceptance property: a mixed
// add/remove/query stream yields answers byte-identical to the uncached
// Method.Run after every mutation — SelfCheck cross-checks every executed
// query; with lazy=false every admitted entry's answer set, as Entries
// reconciles it, is asserted equal to a fresh uncached run of its pattern
// after each mutation; and at the end every entry revalidates through the
// hit path. Exercised over three workload seeds (shardsSeed) in both
// reconcileModes; `go test -race` arms the race detector over the same
// paths.
func TestChurnEquivalence(t *testing.T) {
	for _, lazy := range reconcileModes {
		for _, shards := range []int{1, 4, 32} {
			t.Run(fmt.Sprintf("lazy=%v/shards=%d", lazy, shards), func(t *testing.T) {
				dataset := testDataset(51, 30)
				extra := testDataset(77, 8)
				w, err := gen.NewWorkload(rand.New(rand.NewSource(shardsSeed(51, shards))), dataset, gen.WorkloadConfig{
					Size: 90, Mixed: true, PoolSize: 24,
					ZipfS: 1.2, ChainFrac: 0.6, ChainLen: 3, MinEdges: 3, MaxEdges: 11,
				})
				if err != nil {
					t.Fatal(err)
				}
				c := testCache(t, dataset, func(cfg *Config) {
					cfg.Capacity = 16
					cfg.Window = 4
				})
				method := c.Method()

				// Entries cached when an add landed, summed over adds: each
				// (entry, add) pair is tested at most once, and the summary
				// screen must leave fewer of them to an iso test.
				var adds, entryAdds int64
				mutations, _ := churnStream(t, func() *Cache { return c }, w.Queries, extra, 9, func(i int) {
					if n := c.Stats().DatasetAdds; n > adds {
						adds = n
						entryAdds += int64(c.Len() + c.WindowLen())
					}
					if lazy {
						return // entries reconcile when next read; validated below
					}
					// Every admitted entry must be byte-exact against the
					// mutated dataset the moment the mutation returns.
					if err := reconcileNow(c); err != nil {
						t.Fatalf("after mutation at query %d: %v", i, err)
					}
				})
				if mutations < 6 {
					t.Fatalf("stream too tame: only %d mutations", mutations)
				}
				info := c.DatasetInfo()
				if info.Epoch != int64(mutations) {
					t.Fatalf("epoch %d after %d mutations", info.Epoch, mutations)
				}

				// Re-execute every admitted entry's pattern: exact hits must
				// re-verify byte-identical (SelfCheck panics on any
				// mismatch).
				for _, e := range c.Entries() {
					res, err := c.Execute(e.Graph, e.Type)
					if err != nil {
						t.Fatal(err)
					}
					want := method.Run(e.Graph, e.Type).Answers
					if !res.Answers.Equal(want) {
						t.Fatalf("entry %d: answers diverge after churn", e.ID)
					}
				}
				tests := c.Stats().MaintenanceTests
				t.Logf("%d maintenance tests for %d entries × adds", tests, entryAdds)
				if tests == 0 || tests >= entryAdds {
					t.Error("want some maintenance tests, and fewer than entries × adds")
				}
			})
		}
	}
}

// TestChurnDeterministic pins that a sequential churn stream is
// deterministic: two runs produce identical answers, identical cache
// contents and identical dataset shapes.
func TestChurnDeterministic(t *testing.T) {
	run := func() (*Cache, []string) {
		dataset := testDataset(51, 30)
		extra := testDataset(77, 6)
		w, err := gen.NewWorkload(rand.New(rand.NewSource(53)), dataset, gen.WorkloadConfig{
			Size: 70, Mixed: true, PoolSize: 20,
			ZipfS: 1.2, ChainFrac: 0.6, ChainLen: 3, MinEdges: 3, MaxEdges: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPolicy("pin") // timing-independent
		if err != nil {
			t.Fatal(err)
		}
		method := ftv.NewGGSXMethod(dataset, 3)
		cfg := DefaultConfig()
		cfg.Capacity = 16
		cfg.Window = 4
		cfg.Policy = p
		c := MustNew(method, cfg)
		var answers []string
		rng := rand.New(rand.NewSource(99))
		nextExtra := 0
		for i, q := range w.Queries {
			res, err := c.Execute(q.G, q.Type)
			if err != nil {
				t.Fatal(err)
			}
			answers = append(answers, res.Answers.String())
			if (i+1)%8 != 0 {
				continue
			}
			if i%16 == 7 && nextExtra < len(extra) {
				if _, err := c.AddGraph(extra[nextExtra]); err != nil {
					t.Fatal(err)
				}
				nextExtra++
			} else {
				info := c.DatasetInfo()
				view := c.Method().View()
				gid := rng.Intn(info.Size)
				for view.Graph(gid) == nil {
					gid = (gid + 1) % info.Size
				}
				if err := c.RemoveGraph(gid); err != nil {
					t.Fatal(err)
				}
			}
		}
		return c, answers
	}
	a, ansA := run()
	b, ansB := run()
	for i := range ansA {
		if ansA[i] != ansB[i] {
			t.Fatalf("query %d: answers diverge between identical churn runs", i)
		}
	}
	ea, eb := a.Entries(), b.Entries()
	if len(ea) != len(eb) {
		t.Fatalf("resident entries diverge: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i].ID != eb[i].ID || !ea[i].Answers().Equal(eb[i].Answers()) {
			t.Fatalf("entry %d diverges between runs", i)
		}
	}
}

// TestConcurrentChurn is the -race gauntlet for live mutations: worker
// goroutines stream queries (each cross-checked by SelfCheck against the
// dataset snapshot it ran under) while a mutator goroutine interleaves
// additions and removals. Runs in both reconcileModes; with lazy=false the
// mutator reconciles every entry after each add, racing the workers' hits
// and window turns.
func TestConcurrentChurn(t *testing.T) {
	for _, lazy := range reconcileModes {
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			dataset := testDataset(61, 24)
			extra := testDataset(88, 10)
			w, err := gen.NewWorkload(rand.New(rand.NewSource(62)), dataset, gen.WorkloadConfig{
				Size: 40, Mixed: true, PoolSize: 16,
				ZipfS: 1.2, ChainFrac: 0.5, ChainLen: 3, MinEdges: 3, MaxEdges: 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			c := testCache(t, dataset, func(cfg *Config) {
				cfg.Capacity = 12
				cfg.Window = 3
			})

			const workers = 4
			var wg sync.WaitGroup
			for wkr := 0; wkr < workers; wkr++ {
				wg.Add(1)
				go func(wkr int) {
					defer wg.Done()
					for i, q := range w.Queries {
						if _, err := c.Execute(q.G, q.Type); err != nil {
							t.Errorf("worker %d query %d: %v", wkr, i, err)
							return
						}
					}
				}(wkr)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(63))
				for m := 0; m < 12; m++ {
					if m%2 == 0 {
						if _, err := c.AddGraph(extra[m/2]); err != nil {
							t.Errorf("concurrent add %d: %v", m, err)
							return
						}
						if !lazy {
							if err := reconcileNow(c); err != nil {
								t.Errorf("after concurrent add %d: %v", m, err)
								return
							}
						}
						continue
					}
					info := c.DatasetInfo()
					view := c.Method().View()
					gid := rng.Intn(info.Size)
					for view.Graph(gid) == nil {
						gid = (gid + 1) % info.Size
					}
					if err := c.RemoveGraph(gid); err != nil {
						t.Errorf("concurrent remove %d: %v", gid, err)
						return
					}
				}
			}()
			wg.Wait()

			// Post-churn: every admitted entry revalidates byte-identical.
			for _, e := range c.Entries() {
				res, err := c.Execute(e.Graph, e.Type)
				if err != nil {
					t.Fatal(err)
				}
				if want := c.Method().Run(e.Graph, e.Type).Answers; !res.Answers.Equal(want) {
					t.Fatalf("entry %d: answers diverge after concurrent churn", e.ID)
				}
			}
		})
	}
}

// TestRemoveGraphClearsAnswerBits pins the removal rule: once
// RemoveGraph returns, the tombstoned gid's bit is gone from every answer
// set a reader of the new dataset sees — Entries and an exact hit on the
// affected entry both serve the masked answers.
func TestRemoveGraphClearsAnswerBits(t *testing.T) {
	dataset := testDataset(71, 12)
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Window = 1 // admit immediately
	})
	// A pattern extracted from graph 0 is guaranteed to answer with 0.
	q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(3)), dataset[0], 4)
	res, err := c.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answers.Contains(0) {
		t.Fatal("pattern of graph 0 should answer with graph 0")
	}
	if err := c.RemoveGraph(0); err != nil {
		t.Fatal(err)
	}
	for _, e := range c.Entries() {
		if e.Answers().Contains(0) {
			t.Fatalf("entry %d still answers with removed graph 0", e.ID)
		}
	}
	res2, err := c.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.ExactHit {
		t.Fatal("expected an exact hit on the patched entry")
	}
	if res2.Answers.Contains(0) {
		t.Fatal("exact hit served a tombstoned answer")
	}
	// Double removal and out-of-range ids are rejected.
	if err := c.RemoveGraph(0); err == nil {
		t.Error("double removal should error")
	}
	if err := c.RemoveGraph(len(dataset) + 5); err == nil {
		t.Error("out-of-range removal should error")
	}
}

// TestRemovalLeavesCurrentAnswersPublished pins the masking fast path: a
// removal of a graph outside an entry's answers changes neither its set
// nor the id space the set is exact over, so the next read of the entry
// copies no set and leaves the published set in place.
func TestRemovalLeavesCurrentAnswersPublished(t *testing.T) {
	dataset := testDataset(71, 12)
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Window = 1 // admit immediately
	})
	q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(3)), dataset[0], 4)
	if _, err := c.Execute(q, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	entries := c.Entries()
	if len(entries) != 1 {
		t.Fatalf("%d entries resident, want 1", len(entries))
	}
	e := entries[0]
	before := e.Answers()
	gid := 0
	for gid < len(dataset) && e.Answers().Contains(gid) {
		gid++
	}
	if gid == len(dataset) {
		t.Fatal("the pattern answers every graph; the scenario did not arm")
	}
	if err := c.RemoveGraph(gid); err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ExactHit {
		t.Fatal("expected an exact hit")
	}
	if e.Answers() != before || res.Answers != before {
		t.Fatalf("removing graph %d, outside the answers, copied the entry's set", gid)
	}
}

// TestTurnMaskLeavesPublishedSetIntact: the window turn masks a removal
// out of an entry by publishing a new set, never by editing the published
// one, so a Result that shares it keeps the answers exact for its view.
func TestTurnMaskLeavesPublishedSetIntact(t *testing.T) {
	dataset := testDataset(73, 12)
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Window = 1 // every miss turns the window
	})
	rng := rand.New(rand.NewSource(74))
	q := gen.ExtractConnectedSubgraph(rng, dataset[0], 3)
	if _, err := c.Execute(q, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	hit, err := c.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.ExactHit || !hit.Answers.Contains(0) {
		t.Fatal("expected an exact hit answering graph 0")
	}
	want := hit.Answers.Count()
	if err := c.RemoveGraph(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(gen.ExtractConnectedSubgraph(rng, dataset[1], 5), ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	if c.Stats().WindowTurns < 2 {
		t.Fatal("no turn after the removal")
	}
	if got := hit.Answers.Count(); got != want || !hit.Answers.Contains(0) {
		t.Fatalf("the turn edited a published set: a Result that answered %d graphs, 0 among them, now answers %d", want, got)
	}
}

// TestAddGraphExtendsAnswers pins the addition rule: AddGraph itself
// runs no containment test, and afterwards a cached entry whose pattern is
// contained in the new graph answers with the new gid, and per-query
// bitsets grow with the dataset. With lazy=false Entries reconciles the
// entry before the hit, which then runs no test; with lazy=true the hit
// pays the test and Entries finds the entry current.
func TestAddGraphExtendsAnswers(t *testing.T) {
	for _, lazy := range reconcileModes {
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			dataset := testDataset(81, 10)
			c := testCache(t, dataset, func(cfg *Config) {
				cfg.Window = 1
			})
			q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(4)), dataset[2], 4)
			if _, err := c.Execute(q, ftv.Subgraph); err != nil {
				t.Fatal(err)
			}
			tests := c.Stats().MaintenanceTests
			// Re-adding a copy of graph 2 guarantees the pattern embeds in
			// the new graph too.
			gid, err := c.AddGraph(dataset[2])
			if err != nil {
				t.Fatal(err)
			}
			if gid != len(dataset) {
				t.Fatalf("new gid %d, want %d", gid, len(dataset))
			}
			if got := c.Stats().MaintenanceTests; got != tests {
				t.Fatalf("AddGraph ran %d maintenance tests, want none", got-tests)
			}
			entriesReconciled := func() {
				t.Helper()
				found := false
				for _, e := range c.Entries() {
					if e.Graph == q {
						found = true
						if !e.Answers().Contains(gid) {
							t.Fatal("Entries returned an entry not reconciled to the added graph")
						}
					}
				}
				if !found {
					t.Fatal("the query's entry is not resident")
				}
			}
			if !lazy {
				entriesReconciled()
			}
			beforeHit := c.Stats().MaintenanceTests
			res, err := c.Execute(q, ftv.Subgraph)
			if err != nil {
				t.Fatal(err)
			}
			if !res.ExactHit {
				t.Fatal("expected an exact hit")
			}
			if res.Answers.Len() != len(dataset)+1 {
				t.Fatalf("answer bitset capacity %d, want %d", res.Answers.Len(), len(dataset)+1)
			}
			if !res.Answers.Contains(gid) {
				t.Fatal("added graph missing from reconciled answers")
			}
			hitTests := c.Stats().MaintenanceTests - beforeHit
			if lazy {
				if hitTests == 0 {
					t.Fatal("the hit on a stale entry ran no maintenance test")
				}
				entriesReconciled()
			} else if hitTests != 0 {
				t.Fatalf("the hit on an entry Entries reconciled ran %d maintenance tests", hitTests)
			}
		})
	}
}
