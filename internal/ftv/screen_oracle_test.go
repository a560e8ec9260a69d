package ftv

import (
	"fmt"
	"math/rand"
	"testing"

	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

// Soundness oracle for the containment screen and its watermark rule.
// Rows are taken from walks on every snapshot of an insert chain that
// keeps creating trie nodes after the walks, and from the dataset's
// forward rows; every pair of them whose graphs VF2 finds contained must
// pass every stage of the screen — the keys both ways, the degree tails
// and both row passes (Decoded.In from the contained side, Decoded.Holds
// from the containing one) — whichever watermark is the older, with the
// dense side decoded from a packed row or held open by a live walk.

// screenItem is one graph's row, as a walk or the forward rows saw it.
type screenItem struct {
	g    *graph.Graph
	row  Row
	what string
}

// cutSubgraph returns a graph contained in g: an induced subgraph on a
// random vertex subset with about a third of its edges dropped, direction
// and edge labels kept.
func cutSubgraph(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	vs := rng.Perm(g.N())[:1+rng.Intn(g.N())]
	ind, err := g.InducedSubgraph(vs)
	if err != nil {
		panic(err)
	}
	b := graph.NewBuilder(ind.N()).SetLabels(ind.Labels())
	if ind.Directed() {
		b.Directed()
	}
	for v := 0; v < ind.N(); v++ {
		for _, u := range ind.OutNeighbors(v) {
			if (!ind.Directed() && int(u) < v) || rng.Intn(3) == 0 {
				continue
			}
			if ind.HasEdgeLabels() {
				b.AddLabeledEdge(v, int(u), ind.EdgeLabel(v, int(u)))
			} else {
				b.AddEdge(v, int(u))
			}
		}
	}
	return b.MustBuild()
}

// runScreenOracle builds a Method over base graphs of the given kind, with
// features of maxLen edges, and grows it by the given number of inserts,
// every third one a graph of labels no graph had (new trie nodes). On the
// built view, midway and at the end it walks every pattern and a sample of
// dataset graphs, keeping their rows, and at the end it adds a sample of
// forward rows; the patterns are random graphs and graphs cut out of
// dataset graphs. It then checks every contained pair.
func runScreenOracle(t *testing.T, seed int64, kind, maxLen, base, inserts int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var dataset []*graph.Graph
	for i := 0; i < max(base, 1); i++ {
		dataset = append(dataset, oracleGraph(rng, kind))
	}
	m := NewGGSXMethod(dataset, maxLen)
	// The first pattern has a label no base graph has, and is the last
	// insert: walks of it before that lack the nodes its own forward row
	// has.
	late := graph.NewBuilder(2).SetLabels([]graph.Label{99, 1})
	if kind&1 != 0 {
		late.Directed()
	}
	patterns := []*graph.Graph{late.AddEdge(0, 1).MustBuild()}
	for i := 1; i < 8; i++ {
		if i%2 == 0 {
			patterns = append(patterns, oracleGraph(rng, kind))
		} else {
			patterns = append(patterns, cutSubgraph(rng, dataset[rng.Intn(len(dataset))]))
		}
	}

	var items []screenItem
	checkpoint := func(what string) {
		view := m.View()
		walk := func(g *graph.Graph, name string) {
			w := view.Walk(g)
			items = append(items, screenItem{g, w.Decoded().Row, fmt.Sprintf("%s walked %s", name, what)})
			w.Release()
		}
		for i, p := range patterns {
			walk(p, fmt.Sprintf("pattern %d", i))
		}
		for i := 0; i < 4; i++ {
			gid := rng.Intn(view.Size())
			walk(view.Graph(gid), fmt.Sprintf("graph %d", gid))
		}
	}
	checkpoint("on the built trie")
	for i := 0; i < inserts; i++ {
		g := oracleGraph(rng, kind)
		if i%3 == 2 {
			fresh := graph.Label(10 + i)
			b := graph.NewBuilder(3).SetLabels([]graph.Label{fresh, 1, fresh})
			if kind&1 != 0 {
				b.Directed()
			}
			g = b.AddEdge(0, 1).AddEdge(1, 2).MustBuild()
			patterns = append(patterns, cutSubgraph(rng, g))
		}
		if i == inserts-1 {
			g = patterns[0]
		}
		if _, err := m.AddGraph(g); err != nil {
			t.Fatal(err)
		}
		if i == inserts/2 {
			checkpoint(fmt.Sprintf("after %d inserts", i+1))
		}
	}
	checkpoint("at the end")
	view := m.View()
	for i := 0; i < 12; i++ {
		gid := rng.Intn(view.Size())
		if i == 0 {
			gid = view.Size() - 1
		}
		items = append(items, screenItem{view.Graph(gid), view.Row(gid), fmt.Sprintf("graph %d's forward row", gid)})
	}

	var contained, olderIn, olderHeld, unseen, keyRefused int
	fvs := make([]graph.FeatureVector, len(items))
	for i, it := range items {
		fvs[i] = graph.ExtractFeatures(it.g)
	}
	for i, a := range items { // a ⊑ b
		for j, b := range items {
			ka, kb := NewScreenKey(fvs[i], a.row), NewScreenKey(fvs[j], b.row)
			if !ka.In(&kb) {
				keyRefused++
			}
			if !iso.SubIso(a.g, b.g) {
				continue
			}
			contained++
			if !ka.In(&kb) || !kb.Holds(&ka) {
				t.Fatalf("seed %d kind %d maxLen %d: %s ⊑ %s, yet the keys refuse it", seed, kind, maxLen, a.what, b.what)
			}
			if !fvs[i].TailIn(&fvs[j]) {
				t.Fatalf("seed %d kind %d maxLen %d: %s ⊑ %s, yet the degree tails refuse it", seed, kind, maxLen, a.what, b.what)
			}
			if a.row.mark < b.row.mark {
				olderIn++
			} else if a.row.mark > b.row.mark {
				olderHeld++
			}
			if a.row.top >= b.row.mark || b.row.top >= a.row.mark {
				unseen++
			}
			da, db := a.row.Decode(), b.row.Decode()
			in, held := da.In(b.row), db.Holds(a.row)
			da.Release()
			db.Release()
			if !in || !held {
				t.Fatalf("seed %d kind %d maxLen %d: %s ⊑ %s, yet In %t, Holds %t", seed, kind, maxLen, a.what, b.what, in, held)
			}
		}
	}
	// The live walks of the newest view, the dense side a query holds open.
	for i, p := range patterns {
		w := view.Walk(p)
		d := w.Decoded()
		for _, o := range items {
			if iso.SubIso(p, o.g) {
				if !d.In(o.row) {
					t.Fatalf("seed %d kind %d maxLen %d: pattern %d ⊑ %s, yet its live walk's In refuses", seed, kind, maxLen, i, o.what)
				}
			}
			if iso.SubIso(o.g, p) {
				if !d.Holds(o.row) {
					t.Fatalf("seed %d kind %d maxLen %d: %s ⊑ pattern %d, yet its live walk's Holds refuses", seed, kind, maxLen, o.what, i)
				}
			}
		}
		w.Release()
	}
	if testing.Verbose() {
		t.Logf("seed %d: %d contained pairs, %d with the contained side older, %d with it newer, %d across nodes one side was walked without; the keys refused %d of %d pairs",
			seed, contained, olderIn, olderHeld, unseen, keyRefused, len(items)*len(items))
	}
	if keyRefused == 0 || keyRefused == len(items)*len(items) {
		t.Fatalf("seed %d: vacuous: the keys refused %d of %d pairs", seed, keyRefused, len(items)*len(items))
	}
	if inserts >= 2 && (olderIn == 0 || olderHeld == 0 || unseen == 0) {
		t.Fatalf("seed %d: vacuous: %d contained pairs, %d older in, %d older held, %d across unseen nodes", seed, contained, olderIn, olderHeld, unseen)
	}
}

// TestRowScreensSound runs the oracle over the four graph kinds and path
// lengths 0 to 3 (the property TestFeatureDominanceNecessary held for the
// cache's own path features, now held for the trie's).
func TestRowScreensSound(t *testing.T) {
	for kind, name := range []string{"undirected", "directed", "edge-labelled", "directed-edge-labelled"} {
		t.Run(name, func(t *testing.T) {
			for maxLen := 0; maxLen <= 3; maxLen++ {
				runScreenOracle(t, int64(200+kind*4+maxLen), kind, maxLen, 12, 12)
			}
		})
	}
}

// FuzzRowScreens lets the fuzzer pick the seed, the graph kind, the path
// length and the base/insert split of the same oracle.
func FuzzRowScreens(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(3), uint8(8), uint8(8))
	f.Add(int64(2), uint8(1), uint8(2), uint8(1), uint8(12))
	f.Add(int64(3), uint8(2), uint8(1), uint8(20), uint8(3))
	f.Add(int64(4), uint8(3), uint8(0), uint8(30), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, kind, maxLen, base, inserts uint8) {
		runScreenOracle(t, seed, int(kind%4), int(maxLen%4), int(base%32), int(inserts%16))
	})
}

// TestRowScreenRejects: the screens refute as well as admit. A triangle
// has paths a single edge of its label lacks, so its row is not In the
// edge's, nor does the edge's walk hold it; the edge passes both ways
// into the triangle.
func TestRowScreenRejects(t *testing.T) {
	tri := graph.MustNew([]graph.Label{0, 0, 0}, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	edge := graph.MustNew([]graph.Label{0, 0}, [][2]int{{0, 1}})
	view := NewGGSXMethod([]*graph.Graph{tri, edge}, 2).View()
	tw, ew := view.Walk(tri), view.Walk(edge)
	defer tw.Release()
	defer ew.Release()
	if tw.Decoded().In(view.Row(1)) {
		t.Error("a triangle's row is In a single edge's")
	}
	if ew.Decoded().Holds(view.Row(0)) {
		t.Error("a single edge's walk holds a triangle's row")
	}
	if !ew.Decoded().In(view.Row(0)) {
		t.Error("a single edge's row is not In a triangle's")
	}
	if !tw.Decoded().Holds(view.Row(1)) {
		t.Error("a triangle's walk does not hold a single edge's row")
	}
}
