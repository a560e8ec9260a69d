package core

import (
	"math/rand"
	"sync"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// exactHit executes q on c and fails unless it is an exact hit answering
// what the uncached method answers.
func exactHit(t *testing.T, c *Cache, q *graph.Graph) *Result {
	t.Helper()
	res, err := exactOrErr(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ExactHit {
		t.Fatalf("hits %v: want an exact hit", res.Hits)
	}
	return res
}

// TestExactMemoFollowsMutations: an exact hit's shared Result belongs to
// one answer state. After an addition or a removal — made through this
// cache, through a sibling cache over the same Method or through the
// Method itself — the next exact hit answers what the uncached method
// answers, in a new Result, and the Result handed out before still holds
// the answers it was exact for.
func TestExactMemoFollowsMutations(t *testing.T) {
	mutators := append([]struct {
		name   string
		add    func(c *Cache, g *graph.Graph) (int, error)
		remove func(c *Cache, gid int) error
	}{{"cache", (*Cache).AddGraph, (*Cache).RemoveGraph}}, foreignMutators...)
	for _, m := range mutators {
		for _, op := range []string{"add", "remove"} {
			t.Run(m.name+"/"+op, func(t *testing.T) {
				dataset := testDataset(171, 10)
				c := testCache(t, dataset, func(cfg *Config) {
					cfg.Window = 1
					cfg.SelfCheck = false // checked by exactOrErr, as an error rather than a panic
				})
				q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(172)), dataset[2], 4)
				if _, err := exactOrErr(c, q); err != nil {
					t.Fatal(err)
				}
				before := exactHit(t, c, q)
				if again := exactHit(t, c, q); again != before {
					t.Fatal("a second hit on an unchanged entry built a new Result")
				}
				held := before.Answers.Clone()

				if op == "add" {
					gid, err := m.add(c, dataset[2]) // q embeds in the copy
					if err != nil {
						t.Fatal(err)
					}
					if after := exactHit(t, c, q); after == before || !after.Answers.Contains(gid) {
						t.Fatalf("after the addition of %d: same Result %v, answers %v", gid, after == before, after.Answers)
					}
				} else {
					if err := m.remove(c, 2); err != nil {
						t.Fatal(err)
					}
					if after := exactHit(t, c, q); after == before || after.Answers.Contains(2) {
						t.Fatalf("after the removal of 2: same Result %v, answers %v", after == before, after.Answers)
					}
				}
				if !before.Answers.Equal(held) || before.Answers.Len() != len(dataset) {
					t.Fatalf("the Result held from before the mutation changed: %v, was %v", before.Answers, held)
				}
				next := exactHit(t, c, q)
				if again := exactHit(t, c, q); again != next {
					t.Fatal("hits on the entry's new state do not share one Result")
				}
			})
		}
	}
}

// TestExactMemoNotServedToOlderView: a reader pinned to a view older than
// the entry's state never receives that state's shared Result — it falls
// through to the miss path and answers exactly for its own view — after
// an addition as after a removal.
func TestExactMemoNotServedToOlderView(t *testing.T) {
	for _, op := range []string{"add", "remove"} {
		t.Run(op, func(t *testing.T) {
			dataset := testDataset(173, 10)
			c := testCache(t, dataset, func(cfg *Config) {
				cfg.Window = 1
				cfg.SelfCheck = false // checked below, as an error rather than a panic
			})
			const g = 4
			q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(174)), dataset[g], 4)
			if _, err := c.Execute(q, ftv.Subgraph); err != nil {
				t.Fatal(err)
			}
			old := c.Method().View()
			var err error
			if op == "add" {
				_, err = c.AddGraph(dataset[g])
			} else {
				err = c.RemoveGraph(g)
			}
			if err != nil {
				t.Fatal(err)
			}
			exactHit(t, c, q) // brings the entry forward to the newer view
			newer := exactHit(t, c, q)
			if again := exactHit(t, c, q); again != newer {
				t.Fatal("the newer view's hits do not share one Result; the scenario did not arm")
			}
			res, err := c.execute(old, q, ftv.Subgraph)
			if err != nil {
				t.Fatal(err)
			}
			if want := old.Run(q, ftv.Subgraph).Answers; res == newer || res.ExactHit || !res.Answers.Equal(want) {
				t.Fatalf("older reader: shared Result %v, exact %v, answers %v, want %v", res == newer, res.ExactHit, res.Answers, want)
			}
		})
	}
}

// TestExactMemoSharedAcrossHits: concurrent first hits on one entry race
// to publish the shared Result; every hit answers exactly, and once the
// race is over every hit returns the one Result that won.
func TestExactMemoSharedAcrossHits(t *testing.T) {
	dataset := testDataset(175, 10)
	c := testCache(t, dataset, func(cfg *Config) { cfg.Window = 1 })
	q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(176)), dataset[1], 4)
	if _, err := c.Execute(q, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	want := c.Method().Run(q, ftv.Subgraph).Answers
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				res, err := c.Execute(q, ftv.Subgraph)
				if err != nil || !res.ExactHit || !res.Answers.Equal(want) {
					t.Errorf("concurrent hit: err %v, exact %v, answers %v, want %v", err, res != nil && res.ExactHit, res, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	first := exactHit(t, c, q)
	for range 10 {
		if exactHit(t, c, q) != first {
			t.Fatal("steady-state hits on one entry returned different Results")
		}
	}
}
