package core

import (
	"math/rand"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

// The path features an entry screens with are its pattern's row of Method
// M's trie (summary.row): one (node, count) pair per distinct label path
// of at most maxLen edges, counted once per occurrence. These tests hold
// that feature space to its definition, through the summaries and probes
// the cache builds.

func randomLabelled(rng *rand.Rand, n, labels int, p float64) *graph.Graph {
	ls := make([]graph.Label, n)
	for i := range ls {
		ls[i] = graph.Label(rng.Intn(labels))
	}
	var es [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				es = append(es, [2]int{u, v})
			}
		}
	}
	return graph.MustNew(ls, es)
}

// isolated returns an edgeless graph of the given vertex labels.
func isolated(labels ...graph.Label) *graph.Graph { return graph.MustNew(labels, nil) }

// mapPathFeatures is the reference for a trie row: the directed simple
// paths of g with at most maxLen edges (out-edges, so both directions of
// an undirected edge), each keyed by its vertex and edge labels as the
// trie keys it, counted in a map.
func mapPathFeatures(g *graph.Graph, maxLen int) map[string]int32 {
	counts := map[string]int32{}
	inPath := make([]bool, g.N())
	var key []byte
	var walk func(v, depth int)
	walk = func(v, depth int) {
		counts[string(key)]++
		if depth == maxLen {
			return
		}
		inPath[v] = true
		for _, w := range g.OutNeighbors(v) {
			if !inPath[w] {
				key = append(key, byte(g.EdgeLabel(v, int(w))), byte(g.Label(int(w))))
				walk(int(w), depth+1)
				key = key[:len(key)-2]
			}
		}
		inPath[v] = false
	}
	for v := 0; v < g.N(); v++ {
		key = append(key[:0], 0, byte(g.Label(v)))
		walk(v, 0)
	}
	return counts
}

// mapDominated reports whether every feature of a has at least a's count
// in b.
func mapDominated(a, b map[string]int32) bool {
	for k, c := range a {
		if b[k] < c {
			return false
		}
	}
	return true
}

// walkMatchesForward reports whether g's walk on the view gives the same
// row as g's forward row gid: the same size, each screening into the other.
func walkMatchesForward(view ftv.DatasetView, g *graph.Graph, gid int) bool {
	walked, forward := walkedRow(view, g), view.Row(gid)
	return walked.Bytes() == forward.Bytes() && rowIn(walked, forward) && rowIn(forward, walked)
}

func TestPathFeaturesSingleEdge(t *testing.T) {
	g := graph.MustNew([]graph.Label{1, 2}, [][2]int{{0, 1}})
	view := ftv.NewGGSXMethod([]*graph.Graph{g}, 2).View()
	// Features: label-1 vertex, label-2 vertex, path 1→2, path 2→1. Four
	// distinct, each counted once.
	ref := mapPathFeatures(g, 2)
	if len(ref) != 4 {
		t.Fatalf("reference feature count = %d, want 4", len(ref))
	}
	for k, c := range ref {
		if c != 1 {
			t.Errorf("feature %v count = %d, want 1", []byte(k), c)
		}
	}
	// The row packs four (node, count) pairs of one byte each.
	if !walkMatchesForward(view, g, 0) || view.Row(0).Bytes() != 8 {
		t.Fatalf("row of %d bytes, want 8, the same walked and inserted", view.Row(0).Bytes())
	}
	row := view.Row(0)
	for _, c := range []struct {
		g    *graph.Graph
		want bool
	}{
		{isolated(1), true}, {isolated(2), true}, {isolated(1, 2), true},
		{isolated(1, 1), false}, {isolated(2, 2), false},
	} {
		if got := rowIn(walkedRow(view, c.g), row); got != c.want {
			t.Errorf("vertices %v: row in the edge's = %v, want %v", c.g.Labels(), got, c.want)
		}
	}
}

func TestPathFeaturesTriangleCounts(t *testing.T) {
	tri := graph.MustNew([]graph.Label{0, 0, 0}, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	path3 := graph.MustNew([]graph.Label{0, 0, 0}, [][2]int{{0, 1}, {1, 2}})
	path4 := graph.MustNew([]graph.Label{0, 0, 0, 0}, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	// Features: single vertex "0" ×3, edge "0-0" ×6 (each undirected edge
	// in both directions).
	ref := mapPathFeatures(tri, 1)
	if len(ref) != 2 || ref[string([]byte{0, 0})] != 3 || ref[string([]byte{0, 0, 0, 0})] != 6 {
		t.Fatalf("reference features %v, want vertex ×3 and edge ×6", ref)
	}
	view := ftv.NewGGSXMethod([]*graph.Graph{tri, path3, path4}, 1).View()
	if !walkMatchesForward(view, tri, 0) || view.Row(0).Bytes() != 4 {
		t.Fatalf("row of %d bytes, want 4, the same walked and inserted", view.Row(0).Bytes())
	}
	// Counts, not shapes: the triangle's 3 vertices and 6 edge ends fit a
	// 4-path's 4 and 6, not a 3-path's 3 and 4, nor 4 isolated vertices.
	rTri, rPath3, rPath4 := view.Row(0), view.Row(1), view.Row(2)
	if !rowIn(rTri, rPath4) {
		t.Error("triangle's row not in a 4-path's")
	}
	if rowIn(rTri, rPath3) {
		t.Error("triangle's row in a 3-path's: its 6 edge ends exceed 4")
	}
	if !rowIn(rPath3, rTri) {
		t.Error("3-path's row not in the triangle's")
	}
	if !rowIn(walkedRow(view, isolated(0, 0, 0)), rTri) || rowIn(walkedRow(view, isolated(0, 0, 0, 0)), rTri) {
		t.Error("vertex count 3 is not what the triangle's row holds")
	}
}

func TestPathFeaturesZeroLen(t *testing.T) {
	g := graph.MustNew([]graph.Label{1, 1, 2}, [][2]int{{0, 1}, {1, 2}})
	view := ftv.NewGGSXMethod([]*graph.Graph{g}, 0).View()
	// Only vertex labels: "1"×2, "2"×1.
	if ref := mapPathFeatures(g, 0); len(ref) != 2 {
		t.Fatalf("reference feature count = %d, want 2", len(ref))
	}
	if !walkMatchesForward(view, g, 0) || view.Row(0).Bytes() != 4 {
		t.Fatalf("row of %d bytes, want 4, the same walked and inserted", view.Row(0).Bytes())
	}
	// At length 0 the edges are invisible: the edgeless graph of the same
	// labels has g's row, one more label-1 vertex does not fit.
	same, more := walkedRow(view, isolated(1, 1, 2)), walkedRow(view, isolated(1, 1, 1))
	if !rowIn(same, view.Row(0)) || !rowIn(view.Row(0), same) {
		t.Error("the edgeless graph of g's labels does not share g's row")
	}
	if rowIn(more, view.Row(0)) {
		t.Error("three label-1 vertices fit g's row")
	}
}

// screenIn runs the containment screen for a ⊑ b in the order hit
// detection and catch-up run it (ftv.ScreenKey): the keys, the degree
// tails, then a's decoded row d against b's row r.
func screenIn(a *graph.Graph, d *ftv.Decoded, b *graph.Graph, r ftv.Row) bool {
	fa, fb := graph.ExtractFeatures(a), graph.ExtractFeatures(b)
	ka, kb := ftv.NewScreenKey(fa, d.Row), ftv.NewScreenKey(fb, r)
	return ka.In(&kb) && fa.TailIn(&fb) && d.In(r)
}

// screenHolds is screenIn for b ⊑ a, from a's decoded row d.
func screenHolds(a *graph.Graph, d *ftv.Decoded, b *graph.Graph, r ftv.Row) bool {
	fa, fb := graph.ExtractFeatures(a), graph.ExtractFeatures(b)
	ka, kb := ftv.NewScreenKey(fa, d.Row), ftv.NewScreenKey(fb, r)
	return ka.Holds(&kb) && fb.TailIn(&fa) && d.Holds(r)
}

// Soundness: if p ⊑ g then p passes the containment screen into g,
// p's walk against g's forward row and g's walk against p's walk, on a
// trie built over g alone.
func TestFeatureDominanceNecessary(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		g := randomLabelled(rng, 8, 2, 0.4)
		// Build p as a partial copy of g (subset of edges of an induced
		// subgraph), guaranteeing p ⊑ g.
		k := 3 + rng.Intn(4)
		verts := rng.Perm(8)[:k]
		ind, err := g.InducedSubgraph(verts)
		if err != nil {
			t.Fatal(err)
		}
		// Drop some edges.
		var keep [][2]int
		for _, e := range ind.Edges() {
			if rng.Float64() < 0.7 {
				keep = append(keep, e)
			}
		}
		p := graph.MustNew(ind.Labels(), keep)
		if !iso.SubIso(p, g) {
			t.Fatal("test construction broken: p not ⊑ g")
		}
		for _, L := range []int{0, 1, 2, 3} {
			view := ftv.NewGGSXMethod([]*graph.Graph{g}, L).View()
			pw, gw := view.Walk(p), view.Walk(g)
			in := screenIn(p, pw.Decoded(), g, view.Row(0))
			held := screenHolds(g, gw.Decoded(), p, pw.Decoded().Row)
			pw.Release()
			gw.Release()
			if !in || !held {
				t.Fatalf("trial %d L=%d: subgraph's summary screened out (in %v, held %v)", trial, L, in, held)
			}
		}
	}
}

func TestFeatureDominanceRejects(t *testing.T) {
	// A triangle has a feature (closed paths of its labels at length 2:
	// 0-0-0 with higher count) that a single edge lacks.
	tri := graph.MustNew([]graph.Label{0, 0, 0}, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	edge := graph.MustNew([]graph.Label{0, 0}, [][2]int{{0, 1}})
	view := ftv.NewGGSXMethod([]*graph.Graph{tri, edge}, 2).View()
	tw, ew := view.Walk(tri), view.Walk(edge)
	defer tw.Release()
	defer ew.Release()
	if screenIn(tri, tw.Decoded(), edge, view.Row(1)) {
		t.Error("triangle's summary should not screen into an edge's")
	}
	if screenHolds(edge, ew.Decoded(), tri, view.Row(0)) {
		t.Error("an edge's walk should not hold a triangle's summary")
	}
	if !screenIn(edge, ew.Decoded(), tri, view.Row(0)) {
		t.Error("edge's summary should screen into the triangle's")
	}
	if !screenHolds(tri, tw.Decoded(), edge, view.Row(1)) {
		t.Error("triangle's walk should hold an edge's summary")
	}
}

func TestDominatedBySelf(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomLabelled(rng, 10, 3, 0.3)
	view := ftv.NewGGSXMethod([]*graph.Graph{g}, 2).View()
	row := view.Row(0)
	if row.Bytes() == 0 || !rowIn(row, row) || !walkMatchesForward(view, g, 0) {
		t.Error("a row must screen into itself and equal its walk")
	}
	// A graph of labels the trie lacks walks to an empty row below the
	// trie's watermark: it screens into anything, and nothing non-empty
	// screens into it.
	empty := walkedRow(view, isolated(99))
	if empty.Bytes() != 0 {
		t.Fatalf("walk of an unseen label has a %d-byte row", empty.Bytes())
	}
	if !rowIn(empty, row) {
		t.Error("empty row not dominated by anything")
	}
	if rowIn(row, empty) {
		t.Error("non-empty row dominated by an empty one")
	}
	// Without a trie every row is the zero Row, which every screen passes.
	var none ftv.Row
	if !rowIn(row, none) || !rowIn(none, row) {
		t.Error("the zero Row must pass every screen")
	}
}

// TestPathFeaturesMatchMapReference holds the row screen to the
// map-counting reference over random undirected, directed and
// edge-labelled graph pairs (labels from a small alphabet, so paths repeat
// and palindromes occur), at every path length up to 4: with both graphs
// indexed, one row screens into the other exactly when every reference
// feature's count is dominated, and each graph's walk gives its forward
// row.
func TestPathFeaturesMatchMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(948))
	kinds := [4]int{} // plain, directed, edge-labelled, both
	repeated, dominated, refuted := 0, 0, 0
	random := func(n int, directed, labelled bool) *graph.Graph {
		b := graph.NewBuilder(n)
		if directed {
			b.Directed()
		}
		for v := 0; v < n; v++ {
			b.SetLabel(v, graph.Label(rng.Intn(3)))
		}
		p := 0.15 + 0.5*rng.Float64()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v || (!directed && v < u) || rng.Float64() >= p {
					continue
				}
				if labelled {
					b.AddLabeledEdge(u, v, graph.Label(1+rng.Intn(2)))
				} else {
					b.AddEdge(u, v)
				}
			}
		}
		return b.MustBuild()
	}
	for i := 0; i < 400; i++ {
		directed, labelled := i%2 == 1, i%4 >= 2
		tg := random(1+rng.Intn(10), directed, labelled)
		p := random(1+rng.Intn(6), directed, labelled)
		if i%8 >= 4 { // cut from tg, so dominance holds often
			ind, err := tg.InducedSubgraph(rng.Perm(tg.N())[:1+rng.Intn(tg.N())])
			if err != nil {
				t.Fatal(err)
			}
			p = ind
		}
		kinds[i%4]++
		for maxLen := 0; maxLen <= 4; maxLen++ {
			view := ftv.NewGGSXMethod([]*graph.Graph{tg, p}, maxLen).View()
			rt, rp := mapPathFeatures(tg, maxLen), mapPathFeatures(p, maxLen)
			for _, c := range []struct {
				a, b   ftv.Row
				ra, rb map[string]int32
				what   string
			}{{view.Row(1), view.Row(0), rp, rt, "p in t"}, {view.Row(0), view.Row(1), rt, rp, "t in p"}} {
				got, want := rowIn(c.a, c.b), mapDominated(c.ra, c.rb)
				if got != want {
					t.Fatalf("pair %d (directed=%t labelled=%t, %d and %d vertices), maxLen %d: %s: row screen %v, reference %v",
						i, directed, labelled, tg.N(), p.N(), maxLen, c.what, got, want)
				}
				if want {
					dominated++
				} else {
					refuted++
				}
			}
			if !walkMatchesForward(view, tg, 0) || !walkMatchesForward(view, p, 1) {
				t.Fatalf("pair %d, maxLen %d: a walk's row differs from its forward row", i, maxLen)
			}
			for _, c := range rt {
				if c > 1 {
					repeated++
					break
				}
			}
		}
	}
	if kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0 || kinds[3] == 0 || repeated == 0 || dominated == 0 || refuted == 0 {
		t.Fatalf("generator too narrow: kinds %v, %d rows with a repeated feature, %d dominated and %d refuted pairs",
			kinds, repeated, dominated, refuted)
	}
}
