package iso

import (
	"math/rand"
	"testing"

	"graphcache/internal/graph"
)

func tri(a, b, c graph.Label) *graph.Graph {
	return graph.MustNew([]graph.Label{a, b, c}, [][2]int{{0, 1}, {1, 2}, {0, 2}})
}

func pathG(labels ...graph.Label) *graph.Graph {
	edges := make([][2]int, 0, len(labels)-1)
	for i := 0; i+1 < len(labels); i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return graph.MustNew(labels, edges)
}

func randomGraph(rng *rand.Rand, n, labels int, pEdge float64) *graph.Graph {
	ls := make([]graph.Label, n)
	for i := range ls {
		ls[i] = graph.Label(rng.Intn(labels))
	}
	var es [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < pEdge {
				es = append(es, [2]int{u, v})
			}
		}
	}
	return graph.MustNew(ls, es)
}

func TestSubIsoBasics(t *testing.T) {
	cases := []struct {
		name string
		p, t *graph.Graph
		want bool
	}{
		{"path2 in triangle", pathG(0, 0), tri(0, 0, 0), true},
		{"path3 in triangle (non-induced)", pathG(0, 0, 0), tri(0, 0, 0), true},
		{"triangle in path3", tri(0, 0, 0), pathG(0, 0, 0), false},
		{"label mismatch", pathG(1, 2), pathG(1, 1), false},
		{"self embedding", tri(1, 2, 3), tri(1, 2, 3), true},
		{"pattern bigger", pathG(0, 0, 0, 0), tri(0, 0, 0), false},
		{"labelled path in labelled triangle", pathG(1, 2), tri(1, 2, 3), true},
		{"absent label", pathG(9), tri(1, 2, 3), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := SubIso(c.p, c.t); got != c.want {
				t.Errorf("SubIso = %v, want %v", got, c.want)
			}
			if got, _ := Ullmann(c.p, c.t, Options{}); got != c.want {
				t.Errorf("Ullmann = %v, want %v", got, c.want)
			}
			if got := bruteCount(c.p, c.t) > 0; got != c.want {
				t.Errorf("brute = %v, want %v (test oracle broken)", got, c.want)
			}
		})
	}
}

func TestEmptyPattern(t *testing.T) {
	empty := graph.MustNew(nil, nil)
	if !SubIso(empty, tri(0, 0, 0)) {
		t.Error("empty pattern should embed")
	}
	if ok, _ := Ullmann(empty, tri(0, 0, 0), Options{}); !ok {
		t.Error("Ullmann: empty pattern should embed")
	}
	if CountEmbeddings(empty, tri(0, 0, 0), 0) != 1 {
		t.Error("empty pattern should count one embedding")
	}
}

func TestDisconnectedPattern(t *testing.T) {
	// Two isolated labelled vertices; target has both labels.
	p := graph.MustNew([]graph.Label{1, 2}, nil)
	if !SubIso(p, pathG(2, 1)) {
		t.Error("disconnected pattern should embed")
	}
	if SubIso(p, pathG(1, 1)) {
		t.Error("missing label 2 should fail")
	}
	// Two disjoint edges into a 4-cycle.
	p2 := graph.MustNew([]graph.Label{0, 0, 0, 0}, [][2]int{{0, 1}, {2, 3}})
	c4 := graph.MustNew([]graph.Label{0, 0, 0, 0}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if !SubIso(p2, c4) {
		t.Error("two disjoint edges should embed in C4")
	}
}

func TestFindEmbeddingValid(t *testing.T) {
	p := pathG(1, 2, 1)
	tg := graph.MustNew([]graph.Label{1, 2, 1, 2}, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	m := FindEmbedding(p, tg)
	if m == nil {
		t.Fatal("no embedding found")
	}
	seen := map[int]bool{}
	for pu, tv := range m {
		if seen[tv] {
			t.Fatal("mapping not injective")
		}
		seen[tv] = true
		if p.Label(pu) != tg.Label(tv) {
			t.Fatal("labels not preserved")
		}
	}
	for _, e := range p.Edges() {
		if !tg.HasEdge(m[e[0]], m[e[1]]) {
			t.Fatal("edges not preserved")
		}
	}
}

func TestFindEmbeddingNone(t *testing.T) {
	if m := FindEmbedding(tri(0, 0, 0), pathG(0, 0, 0)); m != nil {
		t.Fatalf("unexpected embedding %v", m)
	}
}

func TestCountEmbeddings(t *testing.T) {
	// Single edge into a triangle, all labels equal: 3 edges × 2 orders.
	if got := CountEmbeddings(pathG(0, 0), tri(0, 0, 0), 0); got != 6 {
		t.Errorf("edge into triangle: %d embeddings, want 6", got)
	}
	// Path3 into triangle: all 6 vertex orderings work.
	if got := CountEmbeddings(pathG(0, 0, 0), tri(0, 0, 0), 0); got != 6 {
		t.Errorf("path3 into triangle: %d, want 6", got)
	}
	// Limit honored.
	if got := CountEmbeddings(pathG(0, 0), tri(0, 0, 0), 2); got != 2 {
		t.Errorf("limited count = %d, want 2", got)
	}
}

func TestIsomorphic(t *testing.T) {
	g := graph.MustNew([]graph.Label{1, 2, 1, 2}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	perm := []int{3, 1, 0, 2}
	ls := make([]graph.Label, 4)
	for old, nw := range perm {
		ls[nw] = g.Label(old)
	}
	var es [][2]int
	for _, e := range g.Edges() {
		es = append(es, [2]int{perm[e[0]], perm[e[1]]})
	}
	h := graph.MustNew(ls, es)
	if !Isomorphic(g, h) {
		t.Error("permuted graph should be isomorphic")
	}
	if !Isomorphic(g, g) {
		t.Error("a graph should be isomorphic to itself (identity shortcut)")
	}
	if Isomorphic(g, pathG(1, 2, 1, 2)) {
		t.Error("C4 vs P4 should not be isomorphic")
	}
	if Isomorphic(g, tri(1, 2, 1)) {
		t.Error("different sizes should not be isomorphic")
	}
}

func TestVF2AgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		p := randomGraph(rng, 2+rng.Intn(4), 2, 0.5)
		tg := randomGraph(rng, 3+rng.Intn(5), 2, 0.5)
		want := bruteCount(p, tg) > 0
		if got := SubIso(p, tg); got != want {
			t.Fatalf("trial %d: VF2 = %v, brute = %v\np=%v edges=%v labels=%v\nt=%v edges=%v labels=%v",
				trial, got, want, p, p.Edges(), p.Labels(), tg, tg.Edges(), tg.Labels())
		}
		if got, _ := Ullmann(p, tg, Options{}); got != want {
			t.Fatalf("trial %d: Ullmann = %v, brute = %v", trial, got, want)
		}
	}
}

func TestVF2AgreesWithUllmannLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		p := randomGraph(rng, 4+rng.Intn(4), 3, 0.4)
		tg := randomGraph(rng, 8+rng.Intn(8), 3, 0.3)
		v, _ := VF2(p, tg, Options{})
		u, _ := Ullmann(p, tg, Options{})
		if v != u {
			t.Fatalf("trial %d: VF2 = %v, Ullmann = %v", trial, v, u)
		}
	}
}

func TestSubIsoTransitivityWitness(t *testing.T) {
	// The cache's correctness rests on transitivity: q ⊑ h and h ⊑ G must
	// imply q ⊑ G. Exercise it on random chains.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		g := randomGraph(rng, 10, 2, 0.4)
		// h = induced subgraph of g; q = induced subgraph of h.
		hv := rng.Perm(10)[:6]
		h, err := g.InducedSubgraph(hv)
		if err != nil {
			t.Fatal(err)
		}
		qv := rng.Perm(6)[:3]
		q, err := h.InducedSubgraph(qv)
		if err != nil {
			t.Fatal(err)
		}
		if !SubIso(h, g) || !SubIso(q, h) {
			t.Fatal("induced subgraph must embed in parent")
		}
		if !SubIso(q, g) {
			t.Fatal("transitivity violated")
		}
	}
}

func TestBudgetAbort(t *testing.T) {
	// A hard instance: pattern is a 12-cycle, target a 12-clique minus the
	// cycle won't abort quickly, so force a tiny budget instead.
	n := 14
	ls := make([]graph.Label, n)
	var es [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			es = append(es, [2]int{u, v})
		}
	}
	clique := graph.MustNew(ls, es)
	cyc := make([][2]int, n)
	for i := 0; i < n; i++ {
		cyc[i] = [2]int{i, (i + 1) % n}
	}
	cycle := graph.MustNew(ls, cyc)

	ok, st := VF2(cycle, clique, Options{MaxRecursions: 3})
	if !st.Aborted {
		t.Fatalf("expected abort, got ok=%v stats=%+v", ok, st)
	}
	if ok {
		t.Error("aborted search must return false")
	}
	ok2, st2 := Ullmann(cycle, clique, Options{MaxRecursions: 3})
	if !st2.Aborted || ok2 {
		t.Errorf("Ullmann abort: ok=%v stats=%+v", ok2, st2)
	}
}

func TestStatsPopulated(t *testing.T) {
	_, st := VF2(pathG(0, 0, 0), tri(0, 0, 0), Options{})
	if st.Recursions == 0 || st.Candidates == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}

func TestQuickRejectByDegree(t *testing.T) {
	// Star K1,3 cannot embed into a path even though labels and sizes fit.
	star := graph.MustNew([]graph.Label{0, 0, 0, 0}, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	p4 := pathG(0, 0, 0, 0)
	if SubIso(star, p4) {
		t.Error("star should not embed in path")
	}
	if !quickReject(star, p4) {
		t.Error("quickReject should catch the degree mismatch")
	}
}

func BenchmarkVF2MoleculeSized(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tg := randomGraph(rng, 40, 8, 0.06)
	p := randomGraph(rng, 8, 8, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VF2(p, tg, Options{})
	}
}

func BenchmarkUllmannMoleculeSized(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tg := randomGraph(rng, 40, 8, 0.06)
	p := randomGraph(rng, 8, 8, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Ullmann(p, tg, Options{})
	}
}
