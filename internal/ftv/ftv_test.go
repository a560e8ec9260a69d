package ftv_test

import (
	"math/rand"
	"testing"

	"graphcache/internal/bitset"
	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

func molecules(seed int64, count int) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	cfg := gen.MoleculeConfig{MinV: 12, MaxV: 24, RingFrac: 0.1, MaxDegree: 4, Labels: 8}
	return gen.Molecules(rng, count, cfg)
}

// exactAnswers computes the ground-truth answer set by exhaustive VF2.
func exactAnswers(dataset []*graph.Graph, q *graph.Graph, qt ftv.QueryType) *bitset.Set {
	out := bitset.New(len(dataset))
	for i, g := range dataset {
		var ok bool
		if qt == ftv.Supergraph {
			ok = iso.SubIso(g, q)
		} else {
			ok = iso.SubIso(q, g)
		}
		if ok {
			out.Add(i)
		}
	}
	return out
}

func TestQueryTypeString(t *testing.T) {
	if ftv.Subgraph.String() != "subgraph" || ftv.Supergraph.String() != "supergraph" {
		t.Error("QueryType.String wrong")
	}
}

func TestNoFilterIsComplete(t *testing.T) {
	f := ftv.NewNoFilter(7)
	c := f.Candidates(graph.MustNew([]graph.Label{0}, nil), ftv.Subgraph)
	if c.Count() != 7 {
		t.Errorf("NoFilter candidates = %d, want 7", c.Count())
	}
	if f.IndexBytes() != 0 || f.Name() != "none" {
		t.Error("NoFilter metadata wrong")
	}
}

// Soundness: the candidate set must contain every true answer.
func TestFiltersSound(t *testing.T) {
	dataset := molecules(1, 40)
	rng := rand.New(rand.NewSource(2))
	filters := []ftv.Filter{
		ftv.NewLabelFilter(dataset),
		ftv.NewGGSX(dataset, 3),
		ftv.NewGGSX(dataset, 4),
		ftv.NewNoFilter(len(dataset)),
	}
	sampler := gen.NewAIDSLabelSampler(8)
	for trial := 0; trial < 25; trial++ {
		src := dataset[rng.Intn(len(dataset))]
		sub := gen.ExtractConnectedSubgraph(rng, src, 3+rng.Intn(8))
		super := gen.Augment(rng, src, 2, 1, sampler)

		for _, f := range filters {
			subTruth := exactAnswers(dataset, sub, ftv.Subgraph)
			if !subTruth.SubsetOf(f.Candidates(sub, ftv.Subgraph)) {
				t.Fatalf("filter %s drops subgraph answers (trial %d)", f.Name(), trial)
			}
			superTruth := exactAnswers(dataset, super, ftv.Supergraph)
			if !superTruth.SubsetOf(f.Candidates(super, ftv.Supergraph)) {
				t.Fatalf("filter %s drops supergraph answers (trial %d)", f.Name(), trial)
			}
		}
	}
}

// GGSX should filter at least as well as the label filter in aggregate.
func TestGGSXPrunesHarder(t *testing.T) {
	dataset := molecules(3, 60)
	rng := rand.New(rand.NewSource(4))
	lf := ftv.NewLabelFilter(dataset)
	gg := ftv.NewGGSX(dataset, 4)
	totalLF, totalGG := 0, 0
	for trial := 0; trial < 30; trial++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[rng.Intn(len(dataset))], 6)
		totalLF += lf.Candidates(q, ftv.Subgraph).Count()
		totalGG += gg.Candidates(q, ftv.Subgraph).Count()
	}
	if totalGG > totalLF {
		t.Errorf("GGSX candidates (%d) exceed label-filter candidates (%d)", totalGG, totalLF)
	}
}

func TestGGSXLongerPathsPruneMore(t *testing.T) {
	dataset := molecules(5, 60)
	rng := rand.New(rand.NewSource(6))
	g3 := ftv.NewGGSX(dataset, 3)
	g4 := ftv.NewGGSX(dataset, 4)
	tot3, tot4 := 0, 0
	for trial := 0; trial < 30; trial++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[rng.Intn(len(dataset))], 8)
		tot3 += g3.Candidates(q, ftv.Subgraph).Count()
		tot4 += g4.Candidates(q, ftv.Subgraph).Count()
	}
	if tot4 > tot3 {
		t.Errorf("L=4 candidates (%d) exceed L=3 candidates (%d)", tot4, tot3)
	}
	if g4.IndexBytes() <= g3.IndexBytes() {
		t.Errorf("L=4 index (%d B) not larger than L=3 (%d B)", g4.IndexBytes(), g3.IndexBytes())
	}
	if g4.NodeCount() <= g3.NodeCount() {
		t.Error("L=4 should have more trie nodes")
	}
}

// TestFeatureSizeShape is the paper's EXP-II-A trade (§3.1.II): one more
// edge of feature length buys pruning with index space. L+1 indexes every
// path L does, so its candidates are a subset on every query, not only
// fewer in total.
func TestFeatureSizeShape(t *testing.T) {
	dataset := gen.Molecules(rand.New(rand.NewSource(11)), 300, gen.DefaultMoleculeConfig())
	w, err := gen.NewWorkload(rand.New(rand.NewSource(18)), dataset, gen.WorkloadConfig{
		Size: 150, Type: ftv.Subgraph, PoolSize: 150, ChainLen: 2, MinEdges: 4, MaxEdges: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, bigger := ftv.NewGGSX(dataset, 3), ftv.NewGGSX(dataset, 4)
	if bigger.IndexBytes() <= base.IndexBytes() {
		t.Errorf("L=4 index (%d B) not larger than L=3 (%d B)", bigger.IndexBytes(), base.IndexBytes())
	}
	for i, q := range w.Queries {
		cb, cg := base.Candidates(q.G, q.Type), bigger.Candidates(q.G, q.Type)
		if !cg.SubsetOf(cb) {
			t.Fatalf("query %d: L=4 candidates %v not a subset of L=3's %v", i, cg, cb)
		}
	}
}

func TestGGSXMissingFeatureShortCircuit(t *testing.T) {
	dataset := molecules(7, 10)
	gg := ftv.NewGGSX(dataset, 3)
	// A query with a label that no molecule has (alphabet is 8).
	q := graph.MustNew([]graph.Label{100, 100}, [][2]int{{0, 1}})
	if c := gg.Candidates(q, ftv.Subgraph); !c.Empty() {
		t.Errorf("query with unseen label should have no candidates, got %d", c.Count())
	}
}

func TestGGSXEmptyQuery(t *testing.T) {
	dataset := molecules(8, 5)
	gg := ftv.NewGGSX(dataset, 3)
	q := graph.MustNew(nil, nil)
	if c := gg.Candidates(q, ftv.Subgraph); c.Count() != 5 {
		t.Errorf("empty query should match all graphs, got %d", c.Count())
	}
}

func TestMethodRunExactness(t *testing.T) {
	dataset := molecules(9, 30)
	rng := rand.New(rand.NewSource(10))
	methods := []*ftv.Method{
		ftv.NewGGSXMethod(dataset, 3),
		ftv.NewMethod("label/vf2", dataset, ftv.NewLabelFilter(dataset), nil),
		ftv.NewMethod("none/vf2", dataset, ftv.NewNoFilter(len(dataset)), nil),
		ftv.NewMethod("ggsx/ullmann", dataset, ftv.NewGGSX(dataset, 3), func(pattern, target *graph.Graph) bool {
			ok, _ := iso.Ullmann(pattern, target, iso.Options{})
			return ok
		}),
	}
	sampler := gen.NewAIDSLabelSampler(8)
	for trial := 0; trial < 15; trial++ {
		sub := gen.ExtractConnectedSubgraph(rng, dataset[rng.Intn(len(dataset))], 5)
		super := gen.Augment(rng, dataset[rng.Intn(len(dataset))], 2, 1, sampler)
		wantSub := exactAnswers(dataset, sub, ftv.Subgraph)
		wantSuper := exactAnswers(dataset, super, ftv.Supergraph)
		for _, m := range methods {
			if got := m.Run(sub, ftv.Subgraph); !got.Answers.Equal(wantSub) {
				t.Fatalf("%s: subgraph answers %v, want %v", m.Name(), got.Answers, wantSub)
			}
			if got := m.Run(super, ftv.Supergraph); !got.Answers.Equal(wantSuper) {
				t.Fatalf("%s: supergraph answers %v, want %v", m.Name(), got.Answers, wantSuper)
			}
		}
	}
}

func TestMethodResultAccounting(t *testing.T) {
	dataset := molecules(11, 20)
	m := ftv.NewGGSXMethod(dataset, 3)
	rng := rand.New(rand.NewSource(12))
	q := gen.ExtractConnectedSubgraph(rng, dataset[0], 4)
	r := m.Run(q, ftv.Subgraph)
	if r.Tests != r.CandidateCount {
		t.Errorf("plain FTV run: tests %d != candidates %d", r.Tests, r.CandidateCount)
	}
	if r.Answers.Count() > r.CandidateCount {
		t.Error("more answers than candidates")
	}
	if !r.Answers.Contains(0) {
		t.Error("extraction source must be an answer")
	}
	if r.TotalTime() < r.VerifyTime {
		t.Error("TotalTime must include verify time")
	}
	if m.DatasetSize() != 20 || m.Filter().Name() != "ggsx" {
		t.Error("method metadata wrong")
	}
}

func TestVerifyCandidateOrientation(t *testing.T) {
	small := graph.MustNew([]graph.Label{1, 2}, [][2]int{{0, 1}})
	big := graph.MustNew([]graph.Label{1, 2, 3}, [][2]int{{0, 1}, {1, 2}})
	dataset := []*graph.Graph{big.WithID(0), small.WithID(1)}
	m := ftv.NewMethod("t", dataset, ftv.NewNoFilter(2), nil)

	// small ⊑ big: subgraph query small matches dataset graph 0.
	if !m.VerifyCandidate(small, 0, ftv.Subgraph) {
		t.Error("subgraph orientation broken")
	}
	// supergraph query big contains dataset graph 1 (= small).
	if !m.VerifyCandidate(big, 1, ftv.Supergraph) {
		t.Error("supergraph orientation broken")
	}
	// big is not ⊑ small.
	if m.VerifyCandidate(big, 1, ftv.Subgraph) {
		t.Error("subgraph orientation inverted")
	}
}

func TestLabelFilterMetadata(t *testing.T) {
	dataset := molecules(13, 10)
	f := ftv.NewLabelFilter(dataset)
	if f.Name() != "label" {
		t.Error("name wrong")
	}
	if f.IndexBytes() <= 0 {
		t.Error("label filter should report positive index bytes")
	}
}

func BenchmarkGGSXBuild(b *testing.B) {
	dataset := molecules(20, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ftv.NewGGSX(dataset, 4)
	}
}
