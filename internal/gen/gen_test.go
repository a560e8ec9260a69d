package gen

import (
	"math/rand"
	"slices"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

func TestLabelSamplerDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewAIDSLabelSampler(12)
	counts := make([]int, 12)
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[s.Sample(rng)]++
	}
	// Carbon (label 0) must dominate, roughly 3/4.
	frac := float64(counts[0]) / draws
	if frac < 0.65 || frac > 0.85 {
		t.Errorf("carbon fraction = %.3f, want ≈ 0.745", frac)
	}
	// Distribution must be monotone non-increasing in expectation; check
	// first few ranks loosely.
	if counts[1] < counts[3] {
		t.Errorf("label 1 (%d) should be more common than label 3 (%d)", counts[1], counts[3])
	}
}

func TestUniformSampler(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := NewUniformLabelSampler(4)
	counts := make([]int, 4)
	for i := 0; i < 8000; i++ {
		counts[s.Sample(rng)]++
	}
	for l, c := range counts {
		if c < 1600 || c > 2400 {
			t.Errorf("label %d count %d, want ≈ 2000", l, c)
		}
	}
}

func TestMoleculeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultMoleculeConfig()
	for i := 0; i < 50; i++ {
		m := Molecule(rng, cfg)
		if m.N() < cfg.MinV || m.N() > cfg.MaxV {
			t.Fatalf("molecule size %d outside [%d,%d]", m.N(), cfg.MinV, cfg.MaxV)
		}
		if !m.IsConnected() {
			t.Fatal("molecule not connected")
		}
		// Sparse: edges close to vertices (tree + few rings).
		if m.M() < m.N()-1 || float64(m.M()) > 1.25*float64(m.N()) {
			t.Fatalf("molecule edges %d for %d vertices not chemistry-like", m.M(), m.N())
		}
		for v := 0; v < m.N(); v++ {
			if m.Degree(v) > cfg.MaxDegree {
				t.Fatalf("degree %d exceeds cap %d", m.Degree(v), cfg.MaxDegree)
			}
		}
	}
}

func TestMoleculesIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ms := Molecules(rng, 10, DefaultMoleculeConfig())
	for i, m := range ms {
		if m.ID() != i {
			t.Fatalf("molecule %d has id %d", i, m.ID())
		}
	}
}

// TestMoleculesBuiltWithIDs: Molecules builds each molecule with its id
// and draws the same graphs as building each with Molecule and copying
// it under its id: for seed 2018, every id, label and edge agrees.
func TestMoleculesBuiltWithIDs(t *testing.T) {
	cfg := DefaultMoleculeConfig()
	got := Molecules(rand.New(rand.NewSource(2018)), 500, cfg)
	rng := rand.New(rand.NewSource(2018))
	for i, g := range got {
		want := Molecule(rng, cfg).WithID(i)
		if g.ID() != want.ID() || !slices.Equal(g.Labels(), want.Labels()) || !slices.Equal(g.Edges(), want.Edges()) {
			t.Fatalf("molecule %d: %v, labels %v, edges %v; copied under its id: %v, %v, %v",
				i, g, g.Labels(), g.Edges(), want, want.Labels(), want.Edges())
		}
	}
}

func TestErdosRenyiEdgeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := ErdosRenyi(rng, 60, 0.2, NewUniformLabelSampler(3))
	want := 0.2 * float64(60*59/2)
	if float64(g.M()) < want*0.6 || float64(g.M()) > want*1.4 {
		t.Errorf("ER edges = %d, want ≈ %.0f", g.M(), want)
	}
}

func TestBarabasiAlbertShape(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := BarabasiAlbert(rng, 200, 2, NewUniformLabelSampler(5))
	if !g.IsConnected() {
		t.Error("BA graph should be connected")
	}
	// Power-law-ish: max degree should greatly exceed the median.
	ds := make([]int, g.N())
	for v := range ds {
		ds[v] = g.Degree(v)
	}
	slices.Sort(ds)
	slices.Reverse(ds)
	if ds[0] < 3*ds[len(ds)/2] {
		t.Errorf("BA max degree %d vs median %d: no hub structure", ds[0], ds[len(ds)/2])
	}
}

func TestExtractConnectedSubgraphInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultMoleculeConfig()
	for i := 0; i < 40; i++ {
		g := Molecule(rng, cfg)
		target := 2 + rng.Intn(10)
		q := ExtractConnectedSubgraph(rng, g, target)
		if q.M() > target {
			t.Fatalf("extracted %d edges, want ≤ %d", q.M(), target)
		}
		if !q.IsConnected() {
			t.Fatal("extracted subgraph not connected")
		}
		if !iso.SubIso(q, g) {
			t.Fatal("extracted subgraph does not embed in source")
		}
	}
}

func TestExtractFromEdgelessGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.MustNew([]graph.Label{3, 4}, nil)
	q := ExtractConnectedSubgraph(rng, g, 5)
	if q.N() != 1 || q.M() != 0 {
		t.Fatalf("want single vertex, got %v", q)
	}
	empty := graph.MustNew(nil, nil)
	if q := ExtractConnectedSubgraph(rng, empty, 3); q.N() != 0 {
		t.Fatalf("want empty graph, got %v", q)
	}
}

func TestAugmentProducesSupergraph(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := NewAIDSLabelSampler(8)
	for i := 0; i < 30; i++ {
		g := Molecule(rng, MoleculeConfig{MinV: 6, MaxV: 12, RingFrac: 0.1, MaxDegree: 4, Labels: 8})
		a := Augment(rng, g, 2, 2, s)
		if a.N() != g.N()+2 {
			t.Fatalf("augmented size %d, want %d", a.N(), g.N()+2)
		}
		if !iso.SubIso(g, a) {
			t.Fatal("original does not embed in augmented graph")
		}
	}
}

func TestWorkloadBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ds := Molecules(rng, 20, DefaultMoleculeConfig())
	cfg := DefaultWorkloadConfig()
	cfg.Size = 50
	w, err := NewWorkload(rng, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 50 {
		t.Fatalf("workload size %d, want 50", len(w.Queries))
	}
	if len(w.Pool) < cfg.PoolSize {
		t.Fatalf("pool size %d, want ≥ %d", len(w.Pool), cfg.PoolSize)
	}
	for _, q := range w.Queries {
		if q.G == nil || q.G.N() == 0 {
			t.Fatal("empty query graph")
		}
		if q.Type != ftv.Subgraph {
			t.Fatal("unexpected query type")
		}
		if q.PoolID < 0 || q.PoolID >= len(w.Pool) {
			t.Fatalf("bad pool id %d", q.PoolID)
		}
	}
}

func TestWorkloadZipfRepeats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds := Molecules(rng, 20, DefaultMoleculeConfig())
	cfg := DefaultWorkloadConfig()
	cfg.Size = 200
	cfg.ZipfS = 1.5
	w, err := NewWorkload(rng, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, q := range w.Queries {
		seen[q.PoolID]++
	}
	max := 0
	for _, c := range seen {
		if c > max {
			max = c
		}
	}
	if max < 10 {
		t.Errorf("Zipf(1.5) workload should repeat its head pattern; max repeats = %d", max)
	}
	if len(seen) < 5 {
		t.Errorf("workload uses only %d distinct patterns", len(seen))
	}
}

func TestWorkloadChainsContain(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ds := Molecules(rng, 20, DefaultMoleculeConfig())
	cfg := DefaultWorkloadConfig()
	cfg.PoolSize = 12
	cfg.ChainFrac = 1.0
	cfg.ChainLen = 3
	cfg.Size = 10
	w, err := NewWorkload(rng, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Chain members are emitted consecutively smallest→largest; verify at
	// least one adjacent pool pair is in containment.
	found := false
	for i := 0; i+1 < len(w.Pool); i++ {
		a, b := w.Pool[i].G, w.Pool[i+1].G
		if a.N() <= b.N() && iso.SubIso(a, b) {
			found = true
			break
		}
	}
	if !found {
		t.Error("no containment pair found in chained pool")
	}
}

func TestWorkloadSupergraphType(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ds := Molecules(rng, 10, MoleculeConfig{MinV: 8, MaxV: 14, RingFrac: 0.1, MaxDegree: 4, Labels: 8})
	cfg := DefaultWorkloadConfig()
	cfg.Type = ftv.Supergraph
	cfg.Size = 20
	cfg.PoolSize = 10
	w, err := NewWorkload(rng, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		if q.Type != ftv.Supergraph {
			t.Fatal("want supergraph queries")
		}
	}
}

func TestWorkloadEmptyDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	if _, err := NewWorkload(rng, nil, DefaultWorkloadConfig()); err == nil {
		t.Error("empty dataset should error")
	}
}

func TestAssignIDs(t *testing.T) {
	g := graph.MustNew([]graph.Label{1}, nil)
	out := AssignIDs([]*graph.Graph{g, g, g})
	for i, h := range out {
		if h.ID() != i {
			t.Fatalf("id %d, want %d", h.ID(), i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() []*graph.Graph {
		rng := rand.New(rand.NewSource(99))
		return Molecules(rng, 5, DefaultMoleculeConfig())
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i].N() != b[i].N() || a[i].M() != b[i].M() {
			t.Fatal("generation not deterministic")
		}
		if a[i].WLFingerprint(3) != b[i].WLFingerprint(3) {
			t.Fatal("generation not deterministic (fingerprint)")
		}
	}
}
