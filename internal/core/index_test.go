package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

// driveQueries pushes n extracted-subgraph queries through the cache.
func driveQueries(t *testing.T, c *Cache, seed int64, n int) {
	t.Helper()
	v := c.Method().View()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		q := gen.ExtractConnectedSubgraph(rng, v.Graph(i%v.Size()), 3+i%5)
		if _, err := c.Execute(q, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
}

// victimLog is a policy that logs the pattern of every victim it picks:
// with the queries that staged entries, an account of what should be
// resident that does not read the cache's list.
type victimLog struct {
	Policy
	victims map[pattern]bool
}

// pattern names a staged entry by its query graph and type.
type pattern struct {
	g  *graph.Graph
	qt ftv.QueryType
}

func (p *victimLog) ReplacedContent(entries []*Entry, x int) []int {
	out := p.Policy.ReplacedContent(entries, x)
	for _, i := range out[:min(x, len(out))] {
		p.victims[pattern{entries[i].Graph, entries[i].Type}] = true
	}
	return out
}

// The published index must mirror the resident list after every
// sequential query: the list holds, in ID order, the entries the queries'
// misses staged and a window turn admitted, less the policy's victims
// (victimLog); each query type's entries, and only those, are in ID
// order in its own arrays, each with the screening key of its own
// summary; and every entry is reachable from byFP along its
// fingerprint's chain, in ascending ID order, where the exact probe finds
// it. Every third query is also issued with the other query type, so
// isomorphic entries share a fingerprint and chains grow past one.
func TestIndexMirrorsAdmittedEntries(t *testing.T) {
	dataset := testDataset(91, 20)
	cfg := DefaultConfig()
	cfg.Capacity = 8 // force evictions
	cfg.Window = 3
	rec := &victimLog{Policy: NewHD(), victims: map[pattern]bool{}}
	cfg.Policy = rec
	c := MustNew(ftv.NewGGSXMethod(dataset, 3), cfg)

	var admitted, pending []pattern
	longest := 0
	check := func() {
		r := c.published.Load()
		var want []pattern
		for _, p := range admitted {
			if !rec.victims[p] {
				want = append(want, p)
			}
		}
		if len(r.all) != len(want) || len(r.next) != len(want) {
			t.Fatalf("index has %d entries and %d links, %d admitted and not evicted", len(r.all), len(r.next), len(want))
		}
		var typed [ftv.Supergraph + 1][]int
		for i, e := range r.all {
			if e.Graph != want[i].g || e.Type != want[i].qt || (i > 0 && e.ID <= r.all[i-1].ID) {
				t.Fatalf("index position %d holds entry %d, not the %d-th entry admitted and not evicted", i, e.ID, i)
			}
			typed[e.Type] = append(typed[e.Type], e.ID)
		}
		for qt, ids := range typed {
			keys, es := r.keys[qt], r.typed[qt]
			if len(es) != len(ids) || len(keys) != len(ids) {
				t.Fatalf("%s: %d entries and %d keys published, %d resident", ftv.QueryType(qt), len(es), len(keys), len(ids))
			}
			for i, e := range es {
				if e.ID != ids[i] || e.Type != ftv.QueryType(qt) {
					t.Fatalf("%s position %d holds %s entry %d, the resident list entry %d", ftv.QueryType(qt), i, e.Type, e.ID, ids[i])
				}
				if keys[i] != ftv.NewScreenKey(e.FV, e.row) {
					t.Fatalf("entry %d: published key diverges from its summary", e.ID)
				}
			}
		}
		chained := 0
		for fp, head := range r.byFP {
			n, prev := 0, -1
			for i := head; i >= 0; i = r.next[i] {
				e := r.all[i]
				if e.Fingerprint != fp || e.ID <= prev {
					t.Fatalf("entry %d misplaced on the chain of %x", e.ID, fp)
				}
				if got := c.findExact(e.Graph, e.Type, fp); got != e {
					t.Fatalf("exact probe for entry %d (position %d on its chain) found %v", e.ID, n, got)
				}
				n, prev = n+1, e.ID
			}
			chained += n
			longest = max(longest, n)
		}
		if chained != len(r.all) {
			t.Fatalf("%d of %d entries reachable through byFP", chained, len(r.all))
		}
	}
	check() // empty cache: empty index
	rng := rand.New(rand.NewSource(92))
	for i := 0; i < 30; i++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[i%len(dataset)], 3+i%5)
		types := []ftv.QueryType{ftv.Subgraph}
		if i%3 == 0 {
			types = append(types, ftv.Supergraph)
		}
		for _, qt := range types {
			turns := c.Stats().WindowTurns
			res, err := c.Execute(q, qt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.ExactHit {
				pending = append(pending, pattern{q, qt})
			}
			if c.Stats().WindowTurns > turns {
				admitted, pending = append(admitted, pending...), nil
			}
			check()
		}
	}
	if c.Stats().Evictions == 0 || longest < 2 {
		t.Fatalf("workload too tame: %d evictions, longest chain %d", c.Stats().Evictions, longest)
	}
}

// TestTurnLeavesPublishedListUnchanged: the published list is the
// resident list, and lock-free readers hold it, so a window turn builds
// the next list in a fresh slice. A view loaded before a turn that
// evicts keeps the same entries, by pointer and by ID, in the same
// order. FIFO evicts the oldest entries, the head of the list, so a turn
// that compacted the list in place would overwrite every position.
func TestTurnLeavesPublishedListUnchanged(t *testing.T) {
	c := testCache(t, testDataset(95, 20), func(cfg *Config) {
		cfg.Capacity = 6
		cfg.Window = 3
		cfg.Policy = NewFIFO()
	})
	driveQueries(t, c, 96, 6)
	r := c.published.Load()
	if len(r.all) != 6 {
		t.Fatalf("%d resident entries, want a full cache of 6", len(r.all))
	}
	held, ids := slices.Clone(r.all), make([]int, len(r.all))
	for i, e := range r.all {
		ids[i] = e.ID
	}
	turns, evictions := c.Stats().WindowTurns, c.Stats().Evictions
	driveQueries(t, c, 97, 3)
	if st := c.Stats(); st.WindowTurns == turns || st.Evictions == evictions {
		t.Fatalf("no turn evicted: %d turns, %d evictions since the view was loaded", st.WindowTurns-turns, st.Evictions-evictions)
	}
	if c.published.Load() == r {
		t.Fatal("the turn published no new view")
	}
	for i, e := range r.all {
		if e != held[i] || e.ID != ids[i] {
			t.Fatalf("position %d of the held view: entry %d, was entry %d", i, e.ID, ids[i])
		}
	}
	checkResidency(t, c, "after the turn")
}

// Admitted entries must carry their immutable feature summaries, and the
// summaries must agree with recomputation from the pattern graph.
func TestEntrySummariesPopulated(t *testing.T) {
	dataset := testDataset(93, 15)
	cfg := DefaultConfig()
	cfg.Window = 2
	c := MustNew(ftv.NewGGSXMethod(dataset, 3), cfg)
	driveQueries(t, c, 94, 8)
	entries := c.Entries()
	if len(entries) == 0 {
		t.Fatal("nothing admitted")
	}
	for _, e := range entries {
		if e.FV != graph.ExtractFeatures(e.Graph) {
			t.Errorf("entry %d: stored feature vector diverges from its graph", e.ID)
		}
		if e.FV.Vertices == 0 || e.FV.LabelBits == 0 {
			t.Errorf("entry %d: empty feature summary", e.ID)
		}
	}
}

// The soundness oracle of the one hit collector, the indexed scan against
// the unindexed truth: before every query of the equivalence stream,
// every admitted entry h of the query's type with q ⊑ h must be in
// scanIndex's sub list, and every one with h ⊑ q (and not q ⊑ h) in its
// super list — the summaries and the row pass may only ever drop
// provable non-hits. An entry contained both ways is isomorphic to
// q: the scan lists it once, as a sub candidate, and the exact probe
// serves it before detection runs. SelfCheck holds every answer to the
// uncached method on the way. Exercised over five workload seeds
// (shardsSeed).
func TestIndexedEquivalentToUnindexed(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8, 32} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			checkIndexedEquivalentToUnindexed(t, shardsSeed(51, shards))
		})
	}
}

func checkIndexedEquivalentToUnindexed(t *testing.T, seed int64) {
	w := equivalenceWorkload(t, seed, 150, 30)
	c := equivalenceCache(t, w.dataset, "pin", 5, func(cfg *Config) {
		cfg.SelfCheck = true
	})
	var subs, supers int
	for i, q := range w.queries {
		w := c.method.View().Walk(q.G)
		sub, super := c.scanIndex(q.Type, graph.ExtractFeatures(q.G), w.Decoded(), nil, nil)
		w.Release()
		listed := func(list []*Entry, h *Entry) bool {
			for _, e := range list {
				if e == h {
					return true
				}
			}
			return false
		}
		for _, h := range c.published.Load().all {
			if h.Type != q.Type {
				continue
			}
			if ok, _ := iso.VF2(q.G, h.Graph, iso.Options{}); ok {
				subs++
				if !listed(sub, h) {
					t.Fatalf("query %d: entry %d contains q but is missing from the sub list", i, h.ID)
				}
			} else if ok, _ := iso.VF2(h.Graph, q.G, iso.Options{}); ok {
				supers++
				if !listed(super, h) {
					t.Fatalf("query %d: entry %d is contained in q but missing from the super list", i, h.ID)
				}
			}
		}
		if _, err := c.Execute(q.G, q.Type); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if subs == 0 || supers == 0 {
		t.Fatalf("workload too tame: %d sub and %d super containments checked", subs, supers)
	}
	if c.Stats().HitIndexPruned == 0 {
		t.Error("index pruned nothing: summaries never fired")
	}
}

// Results served through the index must stay exact against the uncached
// method (SelfCheck panics on any mismatch).
func TestIndexSelfCheck(t *testing.T) {
	dataset := testDataset(97, 25)
	cfg := DefaultConfig()
	cfg.Capacity = 10
	cfg.Window = 3
	cfg.SelfCheck = true
	c := MustNew(ftv.NewGGSXMethod(dataset, 3), cfg)
	dsRng := rand.New(rand.NewSource(98))
	for i := 0; i < 40; i++ {
		q := gen.ExtractConnectedSubgraph(dsRng, dataset[i%len(dataset)], 2+i%6)
		qt := ftv.Subgraph
		if i%3 == 0 {
			qt = ftv.Supergraph
		}
		if _, err := c.Execute(q, qt); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().HitIndexPruned == 0 {
		t.Error("index never pruned on a mixed workload")
	}
}
