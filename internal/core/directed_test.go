package core

import (
	"math/rand"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

func circuitDataset(seed int64, count int) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return gen.Circuits(rng, count, gen.DefaultCircuitConfig())
}

// End-to-end correctness of the generalization: the full cache pipeline
// over a directed, edge-labelled dataset, cross-checked against the
// uncached method on every query.
func TestCacheCorrectnessDirectedCircuits(t *testing.T) {
	dataset := circuitDataset(51, 30)
	method := ftv.NewGGSXMethod(dataset, 3)
	cfg := DefaultConfig()
	cfg.SelfCheck = true
	cfg.Window = 5
	c, err := New(method, cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(52))
	wires := gen.NewUniformLabelSampler(3)
	var queries []gen.Query
	// Subgraph chains (fragment ⊑ block), supergraph augments, repeats.
	for i := 0; i < 20; i++ {
		src := dataset[rng.Intn(len(dataset))]
		block := gen.ExtractConnectedSubgraph(rng, src, 6)
		frag := gen.ExtractConnectedSubgraph(rng, block, 3)
		queries = append(queries,
			gen.Query{G: block, Type: ftv.Subgraph},
			gen.Query{G: frag, Type: ftv.Subgraph},
			gen.Query{G: block, Type: ftv.Subgraph}, // resubmission
			gen.Query{G: gen.Augment(rng, src, 2, 1, wires), Type: ftv.Supergraph},
		)
	}
	subHits, superHits, exact := 0, 0, 0
	for i, q := range queries {
		res, err := c.Execute(q.G, q.Type)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		base := method.Run(q.G, q.Type)
		if !res.Answers.Equal(base.Answers) {
			t.Fatalf("query %d: directed answers diverge", i)
		}
		subHits += res.SubHitCount()
		superHits += res.SuperHitCount()
		if res.ExactHit {
			exact++
		}
	}
	if exact == 0 {
		t.Error("no exact hits on resubmitted circuit queries")
	}
	if subHits+superHits == 0 {
		t.Error("no sub/super hits on chained circuit queries")
	}
}

// TestDirectedFeaturesDominance: a pattern cut out of a circuit passes
// the containment screen against the circuit's forward row, in both
// directions of the screen: the circuit's row dominates the pattern's
// walk, and the pattern's decoded row is held by the circuit's.
func TestDirectedFeaturesDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 50; trial++ {
		c := gen.Circuit(rng, gen.DefaultCircuitConfig())
		view := ftv.NewGGSXMethod([]*graph.Graph{c}, 2).View()
		q := gen.ExtractConnectedSubgraph(rng, c, 2+rng.Intn(5))
		qrow := walkedRow(view, q)
		d := qrow.Decode()
		in := screenIn(q, &d, c, view.Row(0))
		d.Release()
		w := view.Walk(c)
		held := screenHolds(c, w.Decoded(), q, qrow)
		w.Release()
		if !held || !in {
			t.Fatalf("trial %d: directed pattern not screened into its source (holds %t, in %t)", trial, held, in)
		}
	}
}

func TestDirectedExactMatchAcrossOrientation(t *testing.T) {
	// Two circuits identical except for one arc's direction must not
	// exact-match.
	mk := func(rev bool) *graph.Graph {
		b := graph.NewBuilder(3).Directed().SetLabels([]graph.Label{1, 2, 3})
		b.AddLabeledEdge(0, 1, 1)
		if rev {
			b.AddLabeledEdge(2, 1, 1)
		} else {
			b.AddLabeledEdge(1, 2, 1)
		}
		return b.MustBuild()
	}
	dataset := circuitDataset(54, 10)
	method := ftv.NewGGSXMethod(dataset, 2)
	cfg := DefaultConfig()
	cfg.Window = 1
	c, err := New(method, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(mk(false), ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(mk(true), ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExactHit {
		t.Error("orientation-differing queries must not exact-match")
	}
}
