package iso

import (
	"math/rand"
	"testing"

	"graphcache/internal/graph"
)

func randomDigraph(rng *rand.Rand, n, vlabels, elabels int, pArc float64) *graph.Graph {
	b := graph.NewBuilder(n).Directed()
	for v := 0; v < n; v++ {
		b.SetLabel(v, graph.Label(rng.Intn(vlabels)))
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < pArc {
				if elabels > 0 {
					b.AddLabeledEdge(u, v, graph.Label(rng.Intn(elabels)))
				} else {
					b.AddEdge(u, v)
				}
			}
		}
	}
	return b.MustBuild()
}

func randomEdgeLabelled(rng *rand.Rand, n, vlabels, elabels int, pEdge float64) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLabel(v, graph.Label(rng.Intn(vlabels)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < pEdge {
				b.AddLabeledEdge(u, v, graph.Label(rng.Intn(elabels)))
			}
		}
	}
	return b.MustBuild()
}

func TestDirectedSubIsoBasics(t *testing.T) {
	// Arc a→b embeds into a→b→c but not into its reversal.
	p := graph.NewBuilder(2).Directed().SetLabels([]graph.Label{1, 2}).AddEdge(0, 1).MustBuild()
	fwd := graph.NewBuilder(3).Directed().SetLabels([]graph.Label{1, 2, 3}).
		AddEdge(0, 1).AddEdge(1, 2).MustBuild()
	rev := graph.NewBuilder(3).Directed().SetLabels([]graph.Label{1, 2, 3}).
		AddEdge(1, 0).AddEdge(2, 1).MustBuild()
	if !SubIso(p, fwd) {
		t.Error("forward arc should embed")
	}
	if SubIso(p, rev) {
		t.Error("reversed target should not admit the forward arc")
	}
	if ok, _ := Ullmann(p, fwd, Options{}); !ok {
		t.Error("Ullmann: forward arc should embed")
	}
	if ok, _ := Ullmann(p, rev, Options{}); ok {
		t.Error("Ullmann: reversed target should not match")
	}
}

func TestDirectedCycleVsPath(t *testing.T) {
	mk := func(edges [][2]int, n int) *graph.Graph {
		b := graph.NewBuilder(n).Directed()
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
		}
		return b.MustBuild()
	}
	cycle := mk([][2]int{{0, 1}, {1, 2}, {2, 0}}, 3)
	path := mk([][2]int{{0, 1}, {1, 2}}, 3)
	if SubIso(cycle, path) {
		t.Error("directed cycle should not embed in directed path")
	}
	if !SubIso(path, cycle) {
		t.Error("directed path should embed in directed cycle")
	}
}

func TestEdgeLabelMatching(t *testing.T) {
	p := graph.NewBuilder(2).SetLabels([]graph.Label{1, 1}).AddLabeledEdge(0, 1, 5).MustBuild()
	tGood := graph.NewBuilder(3).SetLabels([]graph.Label{1, 1, 1}).
		AddLabeledEdge(0, 1, 9).AddLabeledEdge(1, 2, 5).MustBuild()
	tBad := graph.NewBuilder(3).SetLabels([]graph.Label{1, 1, 1}).
		AddLabeledEdge(0, 1, 9).AddLabeledEdge(1, 2, 8).MustBuild()
	if !SubIso(p, tGood) {
		t.Error("matching edge label should embed")
	}
	if SubIso(p, tBad) {
		t.Error("mismatched edge labels should not embed")
	}
	if ok, _ := Ullmann(p, tGood, Options{}); !ok {
		t.Error("Ullmann: matching edge label should embed")
	}
	if ok, _ := Ullmann(p, tBad, Options{}); ok {
		t.Error("Ullmann: mismatched edge labels should not embed")
	}
}

func TestMixedDirectednessRejected(t *testing.T) {
	und := graph.MustNew([]graph.Label{1, 1}, [][2]int{{0, 1}})
	dir := graph.NewBuilder(2).Directed().SetLabels([]graph.Label{1, 1}).AddEdge(0, 1).MustBuild()
	if SubIso(und, dir) || SubIso(dir, und) {
		t.Error("mixed directedness must not match")
	}
	if Isomorphic(und, dir) {
		t.Error("mixed directedness must not be isomorphic")
	}
}

func TestDirectedVF2AgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		p := randomDigraph(rng, 2+rng.Intn(3), 2, 2, 0.4)
		tg := randomDigraph(rng, 3+rng.Intn(4), 2, 2, 0.4)
		want := bruteCount(p, tg) > 0
		if got := SubIso(p, tg); got != want {
			t.Fatalf("trial %d: VF2 = %v, brute = %v\np edges=%v\nt edges=%v",
				trial, got, want, p.Edges(), tg.Edges())
		}
		if got, _ := Ullmann(p, tg, Options{}); got != want {
			t.Fatalf("trial %d: Ullmann = %v, brute = %v", trial, got, want)
		}
	}
}

func TestEdgeLabelledVF2AgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 300; trial++ {
		p := randomEdgeLabelled(rng, 2+rng.Intn(3), 2, 2, 0.5)
		tg := randomEdgeLabelled(rng, 3+rng.Intn(4), 2, 2, 0.5)
		want := bruteCount(p, tg) > 0
		if got := SubIso(p, tg); got != want {
			t.Fatalf("trial %d: VF2 = %v, brute = %v", trial, got, want)
		}
		if got, _ := Ullmann(p, tg, Options{}); got != want {
			t.Fatalf("trial %d: Ullmann = %v, brute = %v", trial, got, want)
		}
	}
}

func TestDirectedEdgeLabelledIsomorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	g := randomDigraph(rng, 7, 2, 3, 0.3)
	// Permute.
	perm := rng.Perm(7)
	b := graph.NewBuilder(7).Directed()
	for old, nw := range perm {
		b.SetLabel(nw, g.Label(old))
	}
	for _, e := range g.Edges() {
		b.AddLabeledEdge(perm[e[0]], perm[e[1]], g.EdgeLabel(e[0], e[1]))
	}
	pg := b.MustBuild()
	if !Isomorphic(g, pg) {
		t.Error("permuted directed labelled graph should be isomorphic")
	}
}

func TestDirectedFindEmbeddingValid(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for trial := 0; trial < 30; trial++ {
		tg := randomDigraph(rng, 8, 2, 2, 0.3)
		verts := rng.Perm(8)[:4]
		p, err := tg.InducedSubgraph(verts)
		if err != nil {
			t.Fatal(err)
		}
		m := FindEmbedding(p, tg)
		if m == nil {
			t.Fatal("induced subgraph must embed")
		}
		for _, e := range p.Edges() {
			if !tg.HasEdge(m[e[0]], m[e[1]]) {
				t.Fatal("arc not preserved")
			}
			if p.EdgeLabel(e[0], e[1]) != tg.EdgeLabel(m[e[0]], m[e[1]]) {
				t.Fatal("edge label not preserved")
			}
		}
	}
}
