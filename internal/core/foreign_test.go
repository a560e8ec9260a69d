package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// TestSiblingCacheKeepsAnswersExact: two caches over one method. The
// first one's entry goes stale across three of its own additions, then a
// second cache over the same method turns its window and adds a graph
// too. The stale entry must still reconcile all four additions.
func TestSiblingCacheKeepsAnswersExact(t *testing.T) {
	dataset := testDataset(141, 10)
	a := testCache(t, dataset, func(cfg *Config) {
		cfg.Window = 1
		cfg.SelfCheck = false // checked below, as an error rather than a panic
	})
	rng := rand.New(rand.NewSource(142))
	q := gen.ExtractConnectedSubgraph(rng, dataset[2], 4)
	if _, err := a.Execute(q, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.AddGraph(dataset[2]); err != nil { // q embeds in every copy
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.Window = 1
	b := MustNew(a.Method(), cfg)
	if _, err := b.Execute(gen.ExtractConnectedSubgraph(rng, dataset[5], 4), ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	gid, err := b.AddGraph(dataset[2])
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if want := a.Method().Run(q, ftv.Subgraph).Answers; !res.ExactHit || !res.Answers.Equal(want) || !want.Contains(gid) {
		t.Fatalf("exact=%v, answers %v; uncached %v", res.ExactHit, res.Answers, want)
	}
}

// foreignMutators are the two ways a Method shared with a cache changes
// behind that cache's back: through a sibling cache over the same method,
// and through the Method's own API.
var foreignMutators = []struct {
	name   string
	add    func(c *Cache, g *graph.Graph) (int, error)
	remove func(c *Cache, gid int) error
}{
	{"sibling",
		func(c *Cache, g *graph.Graph) (int, error) { return MustNew(c.Method(), DefaultConfig()).AddGraph(g) },
		func(c *Cache, gid int) error { return MustNew(c.Method(), DefaultConfig()).RemoveGraph(gid) }},
	{"method",
		func(c *Cache, g *graph.Graph) (int, error) { return c.Method().AddGraph(g) },
		func(c *Cache, gid int) error { return c.Method().RemoveGraph(gid) }},
}

// exactOrErr executes q on c, reporting a panic or answers that differ
// from the uncached method as an error.
func exactOrErr(c *Cache, q *graph.Graph) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if res, err = c.Execute(q, ftv.Subgraph); err != nil {
		return nil, err
	}
	if want := c.Method().Run(q, ftv.Subgraph).Answers; !res.Answers.Equal(want) {
		return nil, fmt.Errorf("answers %v, uncached %v", res.Answers, want)
	}
	return res, nil
}

// TestForeignRemovalLeavesNoAnswer: a graph removed from the shared
// Method by a sibling cache, or through the Method itself, appears in
// none of this cache's answers — not in a sub hit's guaranteed answers,
// not in an exact hit's, not in a miss's.
func TestForeignRemovalLeavesNoAnswer(t *testing.T) {
	for _, m := range foreignMutators {
		t.Run(m.name, func(t *testing.T) {
			dataset := testDataset(161, 10)
			c := testCache(t, dataset, func(cfg *Config) {
				cfg.Window = 1
				cfg.SelfCheck = false // checked by exactOrErr, as an error rather than a panic
			})
			rng := rand.New(rand.NewSource(162))
			q := gen.ExtractConnectedSubgraph(rng, dataset[2], 5)
			if _, err := exactOrErr(c, q); err != nil { // the entry answers with graph 2
				t.Fatal(err)
			}
			if err := m.remove(c, 2); err != nil {
				t.Fatal(err)
			}
			for _, k := range []struct {
				kind string
				q    *graph.Graph
				ok   func(*Result) bool
			}{
				{"sub hit", gen.ExtractConnectedSubgraph(rng, q, 3), func(r *Result) bool { return !r.Sure.Empty() }},
				{"exact hit", q, func(r *Result) bool { return r.ExactHit }},
				{"miss", gen.ExtractConnectedSubgraph(rng, dataset[5], 4), func(r *Result) bool { return len(r.Hits) == 0 }},
			} {
				res, err := exactOrErr(c, k.q)
				if err != nil {
					t.Fatalf("%s: %v", k.kind, err)
				}
				if !k.ok(res) {
					t.Fatalf("%s: hits %v; the scenario did not arm", k.kind, res.Hits)
				}
			}
		})
	}
}

// TestForeignAdditionReachesMiss: a miss whose candidates include a graph
// added to the shared Method by a sibling cache, or through the Method
// itself, verifies and prices it like any other graph — exact answers, no
// panic.
func TestForeignAdditionReachesMiss(t *testing.T) {
	for _, m := range foreignMutators {
		t.Run(m.name, func(t *testing.T) {
			dataset := testDataset(163, 10)
			c := testCache(t, dataset, func(cfg *Config) {
				cfg.Window = 1
				cfg.SelfCheck = false
			})
			rng := rand.New(rand.NewSource(164))
			if _, err := exactOrErr(c, gen.ExtractConnectedSubgraph(rng, dataset[7], 4)); err != nil {
				t.Fatal(err)
			}
			gid, err := m.add(c, dataset[3])
			if err != nil {
				t.Fatal(err)
			}
			res, err := exactOrErr(c, gen.ExtractConnectedSubgraph(rng, dataset[3], 4)) // embeds in the copy
			if err != nil {
				t.Fatal(err)
			}
			if res.ExactHit || !res.Answers.Contains(gid) {
				t.Fatalf("exact=%v answers %v: want a miss answering with the added graph %d", res.ExactHit, res.Answers, gid)
			}
		})
	}
}

// TestForeignAdditionScreened: a stale entry of either query type catches
// up on the same graphs added through its own cache, through a sibling
// cache and through the Method itself, and runs the same maintenance
// tests each time: the screen reads each added graph's row from the view,
// whoever added it. It refutes most of them, and still answers exactly.
func TestForeignAdditionScreened(t *testing.T) {
	dataset := testDataset(171, 10)
	rng := rand.New(rand.NewSource(172))
	sub := gen.ExtractConnectedSubgraph(rng, dataset[2], 4)
	super := dataset[4]
	// Copies of the graphs the patterns embed in and contain, among
	// graphs the screen should refute.
	adds := append(testDataset(173, 12), dataset[2], dataset[2], gen.ExtractConnectedSubgraph(rng, super, 5))
	adders := []struct {
		name string
		add  func(c *Cache, g *graph.Graph) (int, error)
	}{{"own", (*Cache).AddGraph}}
	for _, m := range foreignMutators {
		adders = append(adders, struct {
			name string
			add  func(c *Cache, g *graph.Graph) (int, error)
		}{m.name, m.add})
	}
	for _, q := range []queryCase{{sub, ftv.Subgraph}, {super, ftv.Supergraph}} {
		tests := map[string]int64{}
		for _, a := range adders {
			c := testCache(t, dataset, func(cfg *Config) { cfg.Window = 1 })
			if _, err := c.Execute(q.g, q.qt); err != nil {
				t.Fatal(err)
			}
			for _, g := range adds {
				if _, err := a.add(c, g); err != nil {
					t.Fatal(err)
				}
			}
			before := c.Stats().MaintenanceTests
			res, err := c.Execute(q.g, q.qt) // SelfCheck compares with the uncached method
			if err != nil {
				t.Fatal(err)
			}
			if !res.ExactHit {
				t.Fatalf("%s %s: want an exact hit on the stale entry", q.qt, a.name)
			}
			tests[a.name] = c.Stats().MaintenanceTests - before
		}
		t.Logf("%s: maintenance tests over %d additions: %v", q.qt, len(adds), tests)
		for _, a := range adders[1:] {
			if tests[a.name] != tests["own"] {
				t.Errorf("%s: %d maintenance tests after additions through %s, %d through its own cache", q.qt, tests[a.name], a.name, tests["own"])
			}
		}
		if n := tests["own"]; n == 0 || n >= int64(len(adds))/2 {
			t.Errorf("%s: %d maintenance tests for %d additions: want the screen to refute most", q.qt, n, len(adds))
		}
	}
}

// TestRestoreRewalksOnGrownTrie: entries saved by a cache over one trie
// restore into a cache whose Method holds the same live graphs at the
// same ids over a trie grown with label paths the first never had (a
// graph of new labels added, then removed). The restore re-walks every pattern
// on the view it pinned, so the restored entries still exact-hit and
// sub/super-hit, with answers equal to the uncached Method.
func TestRestoreRewalksOnGrownTrie(t *testing.T) {
	dataset := testDataset(181, 20)
	novel := graph.NewBuilder(3).SetLabels([]graph.Label{40, 41, 40}).AddEdge(0, 1).AddEdge(1, 2).MustBuild()
	saved := MustNew(ftv.NewGGSXMethod(append(slices.Clone(dataset), nil), 3), DefaultConfig())
	grown := ftv.NewGGSXMethod(append(slices.Clone(dataset), novel), 3)
	if err := grown.RemoveGraph(len(dataset)); err != nil {
		t.Fatal(err)
	}
	small, big := saved.Method().Filter().(*ftv.GGSX), grown.Filter().(*ftv.GGSX)
	if big.IndexBytes() <= small.IndexBytes() {
		t.Fatalf("index bytes %d and %d: the scenario did not arm", small.IndexBytes(), big.IndexBytes())
	}

	rng := rand.New(rand.NewSource(182))
	var pool []queryCase
	for i := 0; i < 12; i++ {
		g := gen.ExtractConnectedSubgraph(rng, dataset[i], 6)
		pool = append(pool, queryCase{g, ftv.Subgraph}, queryCase{g, ftv.Supergraph})
	}
	for _, q := range pool {
		if _, err := saved.Execute(q.g, q.qt); err != nil {
			t.Fatal(err)
		}
	}
	var state bytes.Buffer
	if err := saved.WriteState(&state); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SelfCheck = true
	c := MustNew(grown, cfg)
	if err := c.ReadState(&state); err != nil {
		t.Fatal(err)
	}
	exact, subSuper := 0, 0
	for _, q := range pool {
		for _, g := range []*graph.Graph{q.g, gen.ExtractConnectedSubgraph(rng, q.g, 4)} {
			res, err := c.Execute(g, q.qt)
			if err != nil {
				t.Fatal(err)
			}
			if want := grown.Run(g, q.qt).Answers; !res.Answers.Equal(want) {
				t.Fatalf("%s query: answers %v, uncached %v", q.qt, res.Answers, want)
			}
			if res.ExactHit {
				exact++
			} else if len(res.Hits) > 0 {
				subSuper++
			}
		}
	}
	if exact < len(pool) || subSuper == 0 {
		t.Fatalf("%d exact and %d sub/super-hit queries after the restore: want every pattern exact and some sub/super hits", exact, subSuper)
	}
}

// queryCase pairs a pattern with its semantics for reuse across rounds.
type queryCase struct {
	g  *graph.Graph
	qt ftv.QueryType
}

// TestRestoreAcrossMutationsRecomputes is the mutations × persistence
// regression: a snapshot written before additions and a removal restores
// after them, and every restored entry answers for the dataset as it now
// stands — the added graphs in, the removed one out — because the
// restore re-runs each pattern on its view instead of trusting answers
// recorded over another. A later addition is then reconciled from the id
// space.
func TestRestoreAcrossMutationsRecomputes(t *testing.T) {
	dataset := testDataset(131, 10)
	c := testCache(t, dataset, func(cfg *Config) { cfg.Window = 1 })
	q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(133)), dataset[1], 4)
	if _, err := c.Execute(q, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	var state bytes.Buffer
	if err := c.WriteState(&state); err != nil {
		t.Fatal(err)
	}

	// Mutate past the written state: two additions of graphs q embeds in,
	// the resident entry reconciled across them (exact hit), a removal of
	// another graph q embeds in.
	for i := 0; i < 2; i++ {
		if _, err := c.AddGraph(dataset[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Execute(q, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveGraph(1); err != nil {
		t.Fatal(err)
	}

	if err := c.ReadState(bytes.NewReader(state.Bytes())); err != nil {
		t.Fatal(err)
	}
	view := c.Method().View()
	want := view.Run(q, ftv.Subgraph).Answers
	if !want.Contains(view.Size()-1) || want.Contains(1) {
		t.Fatalf("Method.Run answers %v: the scenario did not arm", want)
	}
	for _, e := range c.Entries() {
		if !e.Answers().Equal(want) {
			t.Fatalf("restored entry %d answers %v, Method.Run %v", e.ID, e.Answers(), want)
		}
	}
	if _, err := c.AddGraph(dataset[1]); err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if want := c.Method().Run(q, ftv.Subgraph).Answers; !res.ExactHit || !res.Answers.Equal(want) {
		t.Fatalf("restored entry after a post-restore addition: exact=%v answers %v, Method.Run %v", res.ExactHit, res.Answers, want)
	}
}
