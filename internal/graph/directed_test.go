package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

// diamond returns the directed, edge-labelled DAG 0→1→3, 0→2→3 with
// distinct wire labels.
func diamond() *Graph {
	return NewBuilder(4).Directed().
		SetLabels([]Label{1, 2, 2, 3}).
		AddLabeledEdge(0, 1, 10).
		AddLabeledEdge(0, 2, 11).
		AddLabeledEdge(1, 3, 12).
		AddLabeledEdge(2, 3, 13).
		MustBuild()
}

func TestDirectedAccessors(t *testing.T) {
	g := diamond()
	if !g.Directed() {
		t.Fatal("graph should be directed")
	}
	if g.M() != 4 {
		t.Fatalf("M = %d, want 4", g.M())
	}
	if g.OutDegree(0) != 2 || g.InDegree(0) != 0 {
		t.Errorf("vertex 0 degrees: out=%d in=%d", g.OutDegree(0), g.InDegree(0))
	}
	if g.OutDegree(3) != 0 || g.InDegree(3) != 2 {
		t.Errorf("vertex 3 degrees: out=%d in=%d", g.OutDegree(3), g.InDegree(3))
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("direction not respected by HasEdge")
	}
	if got := g.InNeighbors(3); len(got) != 2 {
		t.Errorf("InNeighbors(3) = %v", got)
	}
}

func TestDirectedAntiparallelEdges(t *testing.T) {
	g := NewBuilder(2).Directed().SetLabels([]Label{0, 0}).
		AddEdge(0, 1).AddEdge(1, 0).MustBuild()
	if g.M() != 2 {
		t.Fatalf("antiparallel arcs should be distinct: M = %d", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("both arcs should exist")
	}
}

func TestUndirectedCollapsesReversedEdges(t *testing.T) {
	g := NewBuilder(2).SetLabels([]Label{0, 0}).
		AddEdge(0, 1).AddEdge(1, 0).MustBuild()
	if g.M() != 1 {
		t.Fatalf("undirected reversed duplicate should collapse: M = %d", g.M())
	}
}

func TestEdgeLabels(t *testing.T) {
	g := diamond()
	if !g.HasEdgeLabels() {
		t.Fatal("edge labels missing")
	}
	if g.EdgeLabel(0, 1) != 10 || g.EdgeLabel(0, 2) != 11 || g.EdgeLabel(1, 3) != 12 || g.EdgeLabel(2, 3) != 13 {
		t.Errorf("edge labels wrong: %d %d %d %d", g.EdgeLabel(0, 1), g.EdgeLabel(0, 2), g.EdgeLabel(1, 3), g.EdgeLabel(2, 3))
	}
	if g.EdgeLabel(1, 0) != 0 {
		t.Error("reverse arc should report no label")
	}
	// Undirected labelled edge is symmetric.
	u := NewBuilder(2).SetLabels([]Label{0, 0}).AddLabeledEdge(1, 0, 7).MustBuild()
	if u.EdgeLabel(0, 1) != 7 || u.EdgeLabel(1, 0) != 7 {
		t.Error("undirected edge label should be symmetric")
	}
	// Unlabelled graphs report 0.
	plain := MustNew([]Label{0, 0}, [][2]int{{0, 1}})
	if plain.HasEdgeLabels() || plain.EdgeLabel(0, 1) != 0 {
		t.Error("unlabelled graph misreports edge labels")
	}
}

func TestDirectedAfterAddEdgeRejected(t *testing.T) {
	b := NewBuilder(2).SetLabels([]Label{0, 0}).AddEdge(0, 1)
	if _, err := b.Directed().Build(); err == nil {
		t.Error("Directed after AddEdge should be rejected")
	}
}

func TestDirectedEdgesList(t *testing.T) {
	g := diamond()
	es := g.Edges()
	if len(es) != 4 {
		t.Fatalf("Edges = %v", es)
	}
	// All arcs in original orientation.
	want := map[[2]int]bool{{0, 1}: true, {0, 2}: true, {1, 3}: true, {2, 3}: true}
	for _, e := range es {
		if !want[e] {
			t.Errorf("unexpected arc %v", e)
		}
	}
}

func TestDirectedWeakConnectivity(t *testing.T) {
	// 0→1, 2→1: weakly connected even though 0 cannot reach 2.
	g := NewBuilder(3).Directed().SetLabels([]Label{0, 0, 0}).
		AddEdge(0, 1).AddEdge(2, 1).MustBuild()
	if !g.IsConnected() {
		t.Error("weakly connected digraph should report connected")
	}
	if comps := g.ConnectedComponents(); len(comps) != 1 {
		t.Errorf("components = %v", comps)
	}
}

func TestDirectedInducedSubgraph(t *testing.T) {
	g := diamond()
	sub, err := g.InducedSubgraph([]int{0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Directed() {
		t.Error("induced subgraph lost directedness")
	}
	if sub.M() != 2 {
		t.Fatalf("induced M = %d, want 2", sub.M())
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) {
		t.Error("induced arcs wrong")
	}
	if sub.EdgeLabel(0, 1) != 10 || sub.EdgeLabel(1, 2) != 12 {
		t.Error("induced edge labels lost")
	}
}

func TestDirectedCodecRoundTrip(t *testing.T) {
	gs := []*Graph{
		diamond().WithID(0),
		// Mixed: an undirected edge-labelled graph.
		NewBuilder(3).SetID(1).SetLabels([]Label{5, 6, 7}).
			AddLabeledEdge(0, 1, 2).AddLabeledEdge(1, 2, 3).MustBuild(),
		// A plain undirected graph stays in the plain format.
		MustNew([]Label{1, 1}, [][2]int{{0, 1}}).WithID(2),
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, gs); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	back, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if len(back) != 3 {
		t.Fatalf("round trip lost graphs: %d", len(back))
	}
	d := back[0]
	if !d.Directed() || d.M() != 4 || d.EdgeLabel(0, 1) != 10 || d.EdgeLabel(2, 3) != 13 {
		t.Errorf("directed graph not preserved: %v", d)
	}
	u := back[1]
	if u.Directed() || u.EdgeLabel(1, 0) != 2 {
		t.Error("undirected labelled graph not preserved")
	}
	if back[2].Directed() || back[2].HasEdgeLabels() {
		t.Error("plain graph gained attributes")
	}
}

func TestCodecRejectsBadDirectedHeader(t *testing.T) {
	if _, err := ReadAll(bytes.NewBufferString("t # 0 sideways\n")); err == nil {
		t.Error("bad graph flag should error")
	}
	if _, err := ReadAll(bytes.NewBufferString("t # 0\nv 0 1\nv 1 1\ne 0 1 -3\n")); err == nil {
		t.Error("bad edge label should error")
	}
}

func TestDirectedWLFingerprintInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(6)
		b := NewBuilder(n).Directed()
		labels := make([]Label, n)
		for i := range labels {
			labels[i] = Label(rng.Intn(3))
			b.SetLabel(i, labels[i])
		}
		type arc struct {
			u, v int
			l    Label
		}
		var arcs []arc
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.3 {
					a := arc{u, v, Label(rng.Intn(3))}
					arcs = append(arcs, a)
					b.AddLabeledEdge(a.u, a.v, a.l)
				}
			}
		}
		g := b.MustBuild()

		perm := rng.Perm(n)
		pb := NewBuilder(n).Directed()
		for old, nw := range perm {
			pb.SetLabel(nw, labels[old])
		}
		for _, a := range arcs {
			pb.AddLabeledEdge(perm[a.u], perm[a.v], a.l)
		}
		pg := pb.MustBuild()
		if g.WLFingerprint(3) != pg.WLFingerprint(3) {
			t.Fatalf("trial %d: directed fingerprint not permutation invariant", trial)
		}
	}
}

func TestWLFingerprintSeesDirection(t *testing.T) {
	ab := NewBuilder(2).Directed().SetLabels([]Label{1, 2}).AddEdge(0, 1).MustBuild()
	ba := NewBuilder(2).Directed().SetLabels([]Label{1, 2}).AddEdge(1, 0).MustBuild()
	if ab.WLFingerprint(3) == ba.WLFingerprint(3) {
		t.Error("fingerprint should distinguish arc direction")
	}
}

func TestWLFingerprintSeesEdgeLabels(t *testing.T) {
	a := NewBuilder(2).SetLabels([]Label{1, 1}).AddLabeledEdge(0, 1, 5).MustBuild()
	b := NewBuilder(2).SetLabels([]Label{1, 1}).AddLabeledEdge(0, 1, 6).MustBuild()
	if a.WLFingerprint(3) == b.WLFingerprint(3) {
		t.Error("fingerprint should distinguish edge labels")
	}
}
