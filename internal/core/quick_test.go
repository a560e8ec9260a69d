package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

// Property: for arbitrary query sequences drawn from seeds, the cache's
// answers always equal the base method's, and the per-query ledger stays
// consistent. testing/quick drives the seed and knob space.
func TestQuickCacheEqualsBase(t *testing.T) {
	dataset := testDataset(61, 25)
	method := ftv.NewGGSXMethod(dataset, 3)

	f := func(seed int64, capacity, window uint8, zipfOn bool) bool {
		cfg := DefaultConfig()
		cfg.Capacity = 1 + int(capacity%12)
		cfg.Window = 1 + int(window%5)
		c, err := New(method, cfg)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		wcfg := gen.WorkloadConfig{
			Size: 25, Type: ftv.Subgraph, PoolSize: 10,
			ChainFrac: 0.5, ChainLen: 3, MinEdges: 2, MaxEdges: 8,
		}
		if zipfOn {
			wcfg.ZipfS = 1.3
		}
		w, err := gen.NewWorkload(rng, dataset, wcfg)
		if err != nil {
			return false
		}
		for _, q := range w.Queries {
			res, err := c.Execute(q.G, q.Type)
			if err != nil {
				return false
			}
			if !res.Answers.Equal(method.Run(q.G, q.Type).Answers) {
				return false
			}
			if res.Tests > res.BaseCandidates {
				return false
			}
			if !disjoint(res.Sure, res.Excluded) {
				return false
			}
		}
		return c.Len() <= cfg.Capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: ReplacedContent returns exactly min(x, len) distinct in-range
// positions for every bundled policy and any utility configuration.
func TestQuickReplacedContentWellFormed(t *testing.T) {
	f := func(seeds []uint32, x uint8) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 40 {
			seeds = seeds[:40]
		}
		entries := make([]*Entry, len(seeds))
		for i, s := range seeds {
			entries[i] = mkEntry(i, int64(s%97), int64(s%53), int64(s%7),
				float64(s%101), float64(s%1009))
		}
		want := int(x % 45)
		if want > len(entries) {
			want = len(entries)
		}
		for _, name := range PolicyNames() {
			p, err := NewPolicy(name)
			if err != nil {
				return false
			}
			got := p.ReplacedContent(entries, int(x%45))
			if len(got) != want && len(got) != len(entries) {
				// x ≥ len(entries) may return all positions.
				if !(int(x%45) >= len(entries) && len(got) == len(entries)) {
					return false
				}
			}
			seen := map[int]bool{}
			for _, pos := range got {
				if pos < 0 || pos >= len(entries) || seen[pos] {
					return false
				}
				seen[pos] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// walkedRow walks g down the view's trie for its row, as the miss path's
// walk does.
func walkedRow(view ftv.DatasetView, g *graph.Graph) ftv.Row {
	w := view.Walk(g)
	defer w.Release()
	return w.Decoded().Row
}

// rowIn reports whether a's row screens into b's: a decoded, b packed.
func rowIn(a, b ftv.Row) bool {
	d := a.Decode()
	defer d.Release()
	ok := d.In(b)
	return ok
}

// Property: the row screen is reflexive and transitive on random graphs,
// and a subgraph's row screens into its supergraph's, walked on a trie
// built over the supergraph alone.
func TestQuickFeatureDominanceOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gen.Molecule(r, gen.MoleculeConfig{MinV: 6, MaxV: 12, RingFrac: 0.1, MaxDegree: 4, Labels: 4})
		sub := gen.ExtractConnectedSubgraph(r, g, 2+r.Intn(4))
		subsub := gen.ExtractConnectedSubgraph(r, sub, 1+r.Intn(2))

		view := ftv.NewGGSXMethod([]*graph.Graph{g}, 2).View()
		rg, rsub, rss := view.Row(0), walkedRow(view, sub), walkedRow(view, subsub)
		// Reflexive, the chain subsub ⊑ sub ⊑ g, and its transitive
		// consequence.
		return rowIn(rg, rg) && rowIn(rsub, rg) && rowIn(rss, rsub) && rowIn(rss, rg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// quickPair draws a (pattern, target) pair of one of the four graph kinds
// (undirected / directed × plain / edge-labelled, kind's low bits) from
// seed, over three labels. When kind&4 is set the pattern is cut out of
// the target, so containment premises hold often.
func quickPair(seed int64, kind uint8) (p, tg *graph.Graph, err error) {
	r := rand.New(rand.NewSource(seed))
	directed, elabelled := kind&1 != 0, kind&2 != 0
	random := func(n int) *graph.Graph {
		b := graph.NewBuilder(n)
		if directed {
			b.Directed()
		}
		for v := 0; v < n; v++ {
			b.SetLabel(v, graph.Label(r.Intn(3)))
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v || (!directed && u > v) || r.Intn(3) != 0 {
					continue
				}
				if elabelled {
					b.AddLabeledEdge(u, v, graph.Label(r.Intn(3)))
				} else {
					b.AddEdge(u, v)
				}
			}
		}
		return b.MustBuild()
	}
	tg = random(1 + r.Intn(8))
	p = random(1 + r.Intn(5))
	if kind&4 != 0 {
		p, err = tg.InducedSubgraph(r.Perm(tg.N())[:1+r.Intn(tg.N())])
	}
	return p, tg, err
}

// labelsWithin reports whether every label is on at most as many vertices
// of p as of g.
func labelsWithin(p, g *graph.Graph) bool {
	counts := make(map[graph.Label]int)
	for _, l := range g.Labels() {
		counts[l]++
	}
	for _, l := range p.Labels() {
		if counts[l]--; counts[l] < 0 {
			return false
		}
	}
	return true
}

// Property, over all four graph kinds: row dominance implies
// label-multiset dominance when both graphs are indexed, because every
// vertex's label is a trie node of one step counted once per vertex.
func TestQuickPathFeaturesImplyLabelDominance(t *testing.T) {
	var premises, pairs int
	f := func(seed int64, kind uint8) bool {
		p, tg, err := quickPair(seed, kind)
		if err != nil {
			return false
		}
		pairs++
		view := ftv.NewGGSXMethod([]*graph.Graph{tg, p}, 2).View()
		if !rowIn(view.Row(1), view.Row(0)) {
			return true
		}
		premises++
		return labelsWithin(p, tg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d pairs had dominated rows", premises, pairs)
	if premises < pairs/4 || premises == pairs {
		t.Errorf("the premise held for %d of %d pairs: the generator no longer tests the implication", premises, pairs)
	}
}

// Property, over all four graph kinds: the containment screen is sound —
// p ⊑ t implies both screens accept, p's walk against t's forward row
// (probe.in) and t's walk against p's walk (probe.holds), on a trie built
// over t alone. Hit detection and catch-up both skip the iso test on its
// refusal.
func TestQuickSummaryScreenSound(t *testing.T) {
	var premises, pairs int
	f := func(seed int64, kind uint8) bool {
		p, tg, err := quickPair(seed, kind)
		if err != nil {
			return false
		}
		pairs++
		if !iso.SubIso(p, tg) {
			return true
		}
		premises++
		view := ftv.NewGGSXMethod([]*graph.Graph{tg}, 3).View()
		pw, tw := view.Walk(p), view.Walk(tg)
		defer pw.Release()
		defer tw.Release()
		return screenIn(p, pw.Decoded(), tg, view.Row(0)) && screenHolds(tg, tw.Decoded(), p, pw.Decoded().Row)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d pairs were contained", premises, pairs)
	if premises < pairs/4 || premises == pairs {
		t.Errorf("containment held for %d of %d pairs: the generator no longer tests the implication", premises, pairs)
	}
}

// Concurrent clients: many goroutines issuing queries against one cache
// must all observe exact answers; internal serialization keeps the ledger
// coherent.
func TestConcurrentClients(t *testing.T) {
	dataset := testDataset(63, 30)
	method := ftv.NewGGSXMethod(dataset, 3)
	cfg := DefaultConfig()
	cfg.Window = 3
	c, err := New(method, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	const perClient = 15
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + k)))
			for i := 0; i < perClient; i++ {
				q := gen.ExtractConnectedSubgraph(rng, dataset[rng.Intn(len(dataset))], 3+rng.Intn(5))
				res, err := c.Execute(q, ftv.Subgraph)
				if err != nil {
					errs <- err
					return
				}
				if !res.Answers.Equal(method.Run(q, ftv.Subgraph).Answers) {
					errs <- errMismatch{}
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := c.Stats().Queries; got != clients*perClient {
		t.Errorf("ledger lost queries under concurrency: %d", got)
	}
}

type errMismatch struct{}

func (errMismatch) Error() string { return "concurrent answers diverged from base" }
