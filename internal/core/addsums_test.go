package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// TestAddSumsWaitForColdestEntry pins the pruning floor rule: the cache
// keeps the summary of every added graph the coldest (stalest) entry has
// yet to test, through every addition's and turn's prune, and drops them
// at the first addition after that entry reconciles — never earlier.
func TestAddSumsWaitForColdestEntry(t *testing.T) {
	dataset := testDataset(111, 10)
	extra := testDataset(112, 4)
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Window = 1 // admit (and turn) on every query
	})
	q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(113)), dataset[0], 4)
	if _, err := c.Execute(q, ftv.Subgraph); err != nil { // entry over 10 ids
		t.Fatal(err)
	}

	// Three lazy additions: the entry, sized to the first 10 ids, pins
	// all three summaries through every prune.
	for i := 0; i < 3; i++ {
		if _, err := c.AddGraph(extra[i]); err != nil {
			t.Fatal(err)
		}
		turnNow(c)
		if got := addSumsLen(c); got != i+1 {
			t.Fatalf("after lazy add %d: %d summaries, want %d (stale entry must pin them)", i, got, i+1)
		}
	}

	// An exact hit reconciles the entry to the current id space...
	res, err := c.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ExactHit {
		t.Fatal("expected an exact hit on the stale entry")
	}
	// ...so the next addition's prune drops everything the entry passed:
	// the three old summaries go, only the new addition's survives.
	if _, err := c.AddGraph(extra[3]); err != nil {
		t.Fatal(err)
	}
	if got := addSumsLen(c); got != 1 {
		t.Fatalf("%d summaries after reconciliation + add, want 1", got)
	}
}

// TestAddSumsBoundedUnderSustainedAdds is the boundedness acceptance
// property for the cache's per-addition records, the added-graph
// summaries: a sustained add/query stream keeps them at O(1) — every
// round's queries reconcile the resident entries, so the floor tracks the
// id space and each addition prunes the tail, though after round 0 every
// query exact-hits and the window never turns. Runs in both
// reconcileModes: with lazy=false each add is followed by reconcileNow
// before the round's queries.
func TestAddSumsBoundedUnderSustainedAdds(t *testing.T) {
	for _, lazy := range reconcileModes {
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			dataset := testDataset(121, 12)
			stream := testDataset(122, 30)
			c := testCache(t, dataset, func(cfg *Config) {
				cfg.Window = 2
			})
			rng := rand.New(rand.NewSource(123))
			pool := make([]*queryCase, 3)
			for i := range pool {
				pool[i] = &queryCase{g: gen.ExtractConnectedSubgraph(rng, dataset[i], 4), qt: ftv.Subgraph}
			}
			maxSums := 0
			for round, g := range stream {
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
				n := addSumsLen(c)
				maxSums = max(maxSums, n)
				if round > 2 && n > 4 {
					t.Fatalf("round %d: %d summaries — pruning is not keeping up", round, n)
				}
			}
			snap := c.Stats()
			if snap.DatasetAdds != int64(len(stream)) {
				t.Fatalf("adds %d, want %d", snap.DatasetAdds, len(stream))
			}
			if maxSums >= len(stream)/2 {
				t.Fatalf("max %d summaries over %d adds: unbounded growth", maxSums, len(stream))
			}
			if addSumsLen(c) == len(stream) {
				t.Fatal("no summary was ever pruned")
			}
		})
	}
}

// TestSiblingCacheKeepsAnswersExact: two caches over one method. The
// first one's entry goes stale across three of its own additions, then a
// second cache over the same method turns its window and adds a graph
// the first has no summary of. The stale entry must still reconcile all
// four additions.
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
	if _, ok := (*a.addSums.Load())[gid]; ok {
		t.Fatal("the first cache holds a summary of the second cache's addition; the scenario did not arm")
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

// addSumsLen is the number of added-graph summaries c holds.
func addSumsLen(c *Cache) int { return len(*c.addSums.Load()) }

// queryCase pairs a pattern with its semantics for reuse across rounds.
type queryCase struct {
	g  *graph.Graph
	qt ftv.QueryType
}

// TestRestoreAcrossAdditionsRefused is the additions × persistence
// regression: a snapshot records answer sets over the id space it was
// written at, and ReadState restores them as exact over the current one.
// That is only sound because additions since the write are impossible to
// restore across — they grow the id space, and a size mismatch is
// refused — so a restored entry can never skip an addition. The test pins
// both directions: a restore across additions (after the entry that
// passed them reconciled and the summaries were pruned) is refused, and a
// same-size restore yields entries that reconcile future additions
// exactly.
func TestRestoreAcrossAdditionsRefused(t *testing.T) {
	dataset := testDataset(131, 10)
	extra := testDataset(132, 3)
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Window = 1
	})
	q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(133)), dataset[1], 4)
	if _, err := c.Execute(q, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	var state bytes.Buffer
	if err := c.WriteState(&state); err != nil {
		t.Fatal(err)
	}

	// Mutate past the written state: two additions, then reconcile the
	// resident entry (exact hit) so the next addition prunes their
	// summaries.
	for i := 0; i < 2; i++ {
		if _, err := c.AddGraph(extra[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Execute(q, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGraph(extra[2]); err != nil {
		t.Fatal(err)
	}
	if addSumsLen(c) != 1 {
		t.Fatalf("%d summaries survive the prune, want 1; the regression scenario did not arm", addSumsLen(c))
	}

	// The state predates the additions whose summaries were pruned:
	// restoring it would pass its sets off as exact over the grown id
	// space and silently skip those additions forever. The size check must
	// refuse it.
	err := c.ReadState(bytes.NewReader(state.Bytes()))
	if err == nil {
		t.Fatal("ReadState accepted a state file from before compacted additions")
	}
	if !strings.Contains(err.Error(), "dataset") {
		t.Fatalf("refusal should blame the dataset size, got: %v", err)
	}

	// A removal since the write keeps the size but changes the dataset
	// digest, so that state is refused too; one written after the removal
	// restores, and a LATER addition is reconciled from the id space.
	c2 := testCache(t, testDataset(131, 10), func(cfg *Config) {
		cfg.Window = 1
	})
	if _, err := c2.Execute(q, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	var state2 bytes.Buffer
	if err := c2.WriteState(&state2); err != nil {
		t.Fatal(err)
	}
	if err := c2.RemoveGraph(0); err != nil {
		t.Fatal(err)
	}
	if err := c2.ReadState(bytes.NewReader(state2.Bytes())); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("ReadState of a state from before a removal: %v, want a digest refusal", err)
	}
	state2.Reset()
	if err := c2.WriteState(&state2); err != nil {
		t.Fatal(err)
	}
	if err := c2.ReadState(bytes.NewReader(state2.Bytes())); err != nil {
		t.Fatal(err)
	}
	size := c2.Method().DatasetSize()
	for _, e := range c2.Entries() {
		if e.Answers().Len() != size {
			t.Fatalf("restored entry %d sized to %d ids, want %d", e.ID, e.Answers().Len(), size)
		}
	}
	if _, err := c2.AddGraph(dataset[1]); err != nil { // q embeds in it by construction
		t.Fatal(err)
	}
	res, err := c2.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if want := c2.Method().Run(q, ftv.Subgraph).Answers; !res.Answers.Equal(want) {
		t.Fatalf("restored entry diverges after post-restore addition: %v vs %v", res.Answers, want)
	}
}
