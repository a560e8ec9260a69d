package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

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

func TestPathFeaturesSingleEdge(t *testing.T) {
	g := graph.MustNew([]graph.Label{1, 2}, [][2]int{{0, 1}})
	fv := pathFeatures(g, 2)
	// Features: label-1 vertex, label-2 vertex, path 1-2. Three distinct.
	if len(fv) != 3 {
		t.Fatalf("feature count = %d, want 3", len(fv))
	}
	for _, fc := range fv {
		if fc.count != 1 {
			t.Errorf("feature count = %d, want 1", fc.count)
		}
	}
}

func TestPathFeaturesTriangleCounts(t *testing.T) {
	g := graph.MustNew([]graph.Label{0, 0, 0}, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	fv := pathFeatures(g, 1)
	// Features: single vertex "0" ×3, edge "0-0" ×3 (each undirected edge
	// once; palindromes counted twice → 6).
	var vertexCount, edgeCount int32
	for _, fc := range fv {
		switch {
		case fc.count == 3:
			vertexCount = fc.count
		case fc.count == 6:
			edgeCount = fc.count
		}
	}
	if vertexCount != 3 {
		t.Errorf("vertex feature count = %d, want 3", vertexCount)
	}
	if edgeCount != 6 {
		t.Errorf("palindromic edge count = %d, want 6 (both directions)", edgeCount)
	}
}

func TestPathFeaturesZeroLen(t *testing.T) {
	g := graph.MustNew([]graph.Label{1, 1, 2}, [][2]int{{0, 1}, {1, 2}})
	fv := pathFeatures(g, 0)
	// Only vertex labels: "1"×2, "2"×1.
	if len(fv) != 2 {
		t.Fatalf("feature count = %d, want 2", len(fv))
	}
}

// Soundness: if p ⊑ g then features(p) must be dominated by features(g).
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
			fp := pathFeatures(p, L)
			fg := pathFeatures(g, L)
			if !fp.dominatedBy(fg) {
				t.Fatalf("trial %d L=%d: features of subgraph not dominated", trial, L)
			}
		}
	}
}

func TestFeatureDominanceRejects(t *testing.T) {
	// A triangle has a feature (closed paths of its labels at length 2:
	// 0-0-0 with higher count) that a single edge lacks.
	tri := graph.MustNew([]graph.Label{0, 0, 0}, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	edge := graph.MustNew([]graph.Label{0, 0}, [][2]int{{0, 1}})
	ftri := pathFeatures(tri, 2)
	fedge := pathFeatures(edge, 2)
	if ftri.dominatedBy(fedge) {
		t.Error("triangle features should not be dominated by an edge's")
	}
	if !fedge.dominatedBy(ftri) {
		t.Error("edge features should be dominated by triangle's")
	}
}

func TestDominatedBySelf(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomLabelled(rng, 10, 3, 0.3)
	fv := pathFeatures(g, 2)
	if !fv.dominatedBy(fv) {
		t.Error("feature vector must dominate itself")
	}
	var empty featureVec
	if !empty.dominatedBy(fv) {
		t.Error("empty vector dominated by anything")
	}
	if len(fv) > 0 && fv.dominatedBy(empty) {
		t.Error("non-empty vector not dominated by empty")
	}
}

func TestCanonicalDir(t *testing.T) {
	cases := []struct {
		seq  []graph.Label
		want bool
	}{
		{[]graph.Label{1}, true},
		{[]graph.Label{1, 2}, true},
		{[]graph.Label{2, 1}, false},
		{[]graph.Label{1, 1}, true},
		{[]graph.Label{1, 2, 1}, true},
		{[]graph.Label{2, 5, 1}, false},
		{[]graph.Label{1, 5, 2}, true},
	}
	for _, c := range cases {
		if got := canonicalDir(c.seq); got != c.want {
			t.Errorf("canonicalDir(%v) = %v, want %v", c.seq, got, c.want)
		}
	}
}

func TestHashSeqLengthSensitive(t *testing.T) {
	a := hashSeq([]graph.Label{1, 1})
	b := hashSeq([]graph.Label{1, 1, 1})
	if a == b {
		t.Error("hash should distinguish path lengths")
	}
}

// mapPathFeatures is the reference pathFeatures: the same enumeration,
// counted in a map and sorted afterwards.
func mapPathFeatures(g *graph.Graph, maxLen int) featureVec {
	counts := map[uint64]int32{}
	inPath := make([]bool, g.N())
	var seq []graph.Label
	var walk func(v, depth int)
	walk = func(v, depth int) {
		if g.Directed() || canonicalDir(seq) {
			counts[hashSeq(seq)]++
		}
		if depth == maxLen {
			return
		}
		inPath[v] = true
		for _, w := range g.OutNeighbors(v) {
			if !inPath[w] {
				seq = append(seq, g.EdgeLabel(v, int(w)), g.Label(int(w)))
				walk(int(w), depth+1)
				seq = seq[:len(seq)-2]
			}
		}
		inPath[v] = false
	}
	for v := 0; v < g.N(); v++ {
		seq = append(seq[:0], g.Label(v))
		walk(v, 0)
	}
	out := make(featureVec, 0, len(counts))
	for h, c := range counts {
		out = append(out, featureCount{h, c})
	}
	slices.SortFunc(out, func(a, b featureCount) int { return cmp.Compare(a.hash, b.hash) })
	return out
}

// TestPathFeaturesMatchMapReference holds the sort-and-run-length
// pathFeatures to the map-counting reference over random undirected,
// directed and edge-labelled graphs (labels from a small alphabet, so
// paths repeat and palindromes occur), at every path length up to 4.
func TestPathFeaturesMatchMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(948))
	kinds := [4]int{} // plain, directed, edge-labelled, both
	repeated := 0
	for i := 0; i < 1200; i++ {
		n := 1 + rng.Intn(12)
		directed, labelled := i%2 == 1, i%4 >= 2
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
		g := b.MustBuild()
		kinds[i%4]++
		for maxLen := 0; maxLen <= 4; maxLen++ {
			got, want := pathFeatures(g, maxLen), mapPathFeatures(g, maxLen)
			if !slices.Equal(got, want) {
				t.Fatalf("graph %d (directed=%t labelled=%t, %d vertices %d edges), maxLen %d: %d features, reference %d",
					i, directed, labelled, g.N(), g.M(), maxLen, len(got), len(want))
			}
			if slices.ContainsFunc(got, func(fc featureCount) bool { return fc.count > 1 }) {
				repeated++
			}
		}
	}
	if kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0 || kinds[3] == 0 || repeated == 0 {
		t.Fatalf("generator too narrow: kinds %v, %d vectors with a repeated feature", kinds, repeated)
	}
}

// BenchmarkPathFeatures times the feature vector of a subgraph-sized
// pattern and of a supergraph-sized one, both cut from molecules:
//
//	go test ./internal/core -run '^$' -bench PathFeatures -benchmem
func BenchmarkPathFeatures(b *testing.B) {
	rng := rand.New(rand.NewSource(950))
	mols := gen.Molecules(rng, 50, gen.DefaultMoleculeConfig())
	for _, edges := range []int{6, 40} {
		var g *graph.Graph
		for _, m := range mols {
			if m.M() >= edges {
				g = gen.ExtractConnectedSubgraph(rng, m, edges)
				break
			}
		}
		if g == nil {
			b.Fatalf("no molecule has %d edges", edges)
		}
		b.Run(fmt.Sprintf("edges=%d", g.M()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pathFeatures(g, featureLen)
			}
		})
	}
}
