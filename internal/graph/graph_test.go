package graph

import (
	"math/rand"
	"testing"
)

// triangle returns K3 with labels a, b, c.
func triangle(a, b, c Label) *Graph {
	return MustNew([]Label{a, b, c}, [][2]int{{0, 1}, {1, 2}, {0, 2}})
}

// path returns a labelled path v0-v1-...-vk.
func path(labels ...Label) *Graph {
	edges := make([][2]int, 0, len(labels)-1)
	for i := 0; i+1 < len(labels); i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return MustNew(labels, edges)
}

func TestBasicAccessors(t *testing.T) {
	g := triangle(1, 2, 3)
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("N=%d M=%d, want 3 3", g.N(), g.M())
	}
	if g.Label(1) != 2 {
		t.Errorf("Label(1) = %d, want 2", g.Label(1))
	}
	if g.Degree(0) != 2 {
		t.Errorf("Degree(0) = %d, want 2", g.Degree(0))
	}
	if g.ID() != -1 {
		t.Errorf("default ID = %d, want -1", g.ID())
	}
}

func TestHasEdgeSymmetric(t *testing.T) {
	g := path(1, 1, 1, 1)
	cases := []struct {
		u, v int
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {1, 2, true}, {0, 2, false},
		{0, 3, false}, {3, 2, true},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestEdgesSortedUnique(t *testing.T) {
	b := NewBuilder(4).SetLabels([]Label{0, 0, 0, 0})
	b.AddEdge(2, 1)
	b.AddEdge(1, 2) // duplicate reversed
	b.AddEdge(0, 3)
	g := b.MustBuild()
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2 (duplicate edge collapsed)", g.M())
	}
	es := g.Edges()
	if es[0] != [2]int{0, 3} || es[1] != [2]int{1, 2} {
		t.Errorf("Edges = %v, want [[0 3] [1 2]]", es)
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder(3).AddEdge(1, 1).Build(); err == nil {
		t.Error("self-loop not rejected")
	}
	if _, err := NewBuilder(3).AddEdge(0, 5).Build(); err == nil {
		t.Error("out-of-range edge not rejected")
	}
	if _, err := NewBuilder(2).SetLabel(7, 1).Build(); err == nil {
		t.Error("out-of-range SetLabel not rejected")
	}
}

// TestBuildCapsVertices: a graph of MaxVertices vertices builds, its top
// vertex ids intact in 16-bit rows, directed or not; one more vertex is an
// error, not a panic or a wrapped id.
func TestBuildCapsVertices(t *testing.T) {
	for _, directed := range []bool{false, true} {
		b := NewBuilder(MaxVertices)
		if directed {
			b.Directed()
		}
		g, err := b.AddEdge(0, MaxVertices-1).AddEdge(MaxVertices-2, MaxVertices-1).Build()
		if err != nil {
			t.Fatalf("directed %v: %d vertices refused: %v", directed, MaxVertices, err)
		}
		if !g.HasEdge(0, MaxVertices-1) || !g.HasEdge(MaxVertices-2, MaxVertices-1) || g.HasEdge(1, MaxVertices-1) {
			t.Errorf("directed %v: the top vertex's edges did not survive", directed)
		}
		if in := g.InNeighbors(MaxVertices - 1); len(in) != 2 || in[0] != 0 || in[1] != MaxVertices-2 {
			t.Errorf("directed %v: in-neighbours of the top vertex %v", directed, in)
		}
		if directed && g.HasEdge(0, 2*MaxVertices-1) {
			t.Errorf("HasEdge(0, %d) wraps onto the arc 0→%d", 2*MaxVertices-1, MaxVertices-1)
		}
		b = NewBuilder(MaxVertices + 1)
		if directed {
			b.Directed()
		}
		if _, err := b.AddEdge(0, MaxVertices).Build(); err == nil {
			t.Errorf("directed %v: %d vertices not refused", directed, MaxVertices+1)
		}
	}
}

func TestConnectivity(t *testing.T) {
	if !triangle(0, 0, 0).IsConnected() {
		t.Error("triangle should be connected")
	}
	g := MustNew([]Label{0, 0, 0, 0}, [][2]int{{0, 1}, {2, 3}})
	if g.IsConnected() {
		t.Error("two components should not be connected")
	}
	comps := g.ConnectedComponents()
	if len(comps) != 2 {
		t.Fatalf("components = %v, want 2", comps)
	}
	if comps[0][0] != 0 || comps[1][0] != 2 {
		t.Errorf("components ordered wrong: %v", comps)
	}
	empty := MustNew(nil, nil)
	if !empty.IsConnected() {
		t.Error("empty graph is connected by convention")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := MustNew([]Label{1, 2, 3, 4}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	sub, err := g.InducedSubgraph([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("induced N=%d M=%d, want 3 2", sub.N(), sub.M())
	}
	if sub.Label(0) != 2 || sub.Label(2) != 4 {
		t.Errorf("induced labels wrong: %v", sub.Labels())
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || sub.HasEdge(0, 2) {
		t.Error("induced edges wrong")
	}
	if _, err := g.InducedSubgraph([]int{0, 0}); err == nil {
		t.Error("duplicate vertex not rejected")
	}
	if _, err := g.InducedSubgraph([]int{9}); err == nil {
		t.Error("out-of-range vertex not rejected")
	}
}

func TestWithID(t *testing.T) {
	g := triangle(0, 0, 0)
	h := g.WithID(42)
	if h.ID() != 42 || g.ID() != -1 {
		t.Errorf("WithID: got %d / original %d", h.ID(), g.ID())
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Error("WithID changed structure")
	}
}

func TestWLFingerprintInvariance(t *testing.T) {
	// A 5-cycle labelled 1,2,1,2,3 and a relabelled permutation of it.
	g1 := MustNew([]Label{1, 2, 1, 2, 3}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	// permutation: map old vertex i to (i+2) mod 5
	perm := []int{2, 3, 4, 0, 1}
	labels := make([]Label, 5)
	for old, nw := range perm {
		labels[nw] = g1.Label(old)
	}
	var edges [][2]int
	for _, e := range g1.Edges() {
		edges = append(edges, [2]int{perm[e[0]], perm[e[1]]})
	}
	g2 := MustNew(labels, edges)
	if g1.WLFingerprint(3) != g2.WLFingerprint(3) {
		t.Error("fingerprints of isomorphic graphs differ")
	}
}

func TestWLFingerprintDiscriminates(t *testing.T) {
	a := path(1, 2, 3)
	b := path(1, 3, 2) // different labelled structure
	c := triangle(1, 2, 3)
	if a.WLFingerprint(3) == b.WLFingerprint(3) {
		t.Error("paths with different label order should differ (center label differs)")
	}
	if a.WLFingerprint(3) == c.WLFingerprint(3) {
		t.Error("path vs triangle should differ")
	}
}

func TestWLFingerprintRandomPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(8)
		labels := make([]Label, n)
		for i := range labels {
			labels[i] = Label(rng.Intn(3))
		}
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.35 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g := MustNew(labels, edges)

		perm := rng.Perm(n)
		plabels := make([]Label, n)
		for old, nw := range perm {
			plabels[nw] = labels[old]
		}
		pedges := make([][2]int, len(edges))
		for i, e := range edges {
			pedges[i] = [2]int{perm[e[0]], perm[e[1]]}
		}
		pg := MustNew(plabels, pedges)
		if g.WLFingerprint(3) != pg.WLFingerprint(3) {
			t.Fatalf("trial %d: fingerprint not permutation invariant", trial)
		}
	}
}

func TestBytesGrowsWithSize(t *testing.T) {
	small := path(1, 2)
	big := path(1, 2, 3, 4, 5, 6, 7, 8)
	if big.Bytes() <= small.Bytes() {
		t.Error("Bytes should grow with graph size")
	}
}

func TestStringFormat(t *testing.T) {
	g := triangle(0, 0, 0).WithID(17)
	if got := g.String(); got != "g17(V=3,E=3)" {
		t.Errorf("String = %q", got)
	}
}
