package ftv_test

import (
	"math/rand"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

// vectorIn runs the containment screen's vector stages for q ⊑ g: the
// key's word facts (rows left out: the zero Row tests no bloom) and the
// degree tail.
func vectorIn(q, g *graph.Graph) bool {
	fq, fg := graph.ExtractFeatures(q), graph.ExtractFeatures(g)
	kq, kg := ftv.NewScreenKey(fq, ftv.Row{}), ftv.NewScreenKey(fg, ftv.Row{})
	return kq.In(&kg) && fq.TailIn(&fg)
}

// Property: the vector stages of the screen are a necessary condition for
// subgraph isomorphism — whenever VF2 finds an embedding, they must
// agree. (The converse is deliberately false: the vector is a filter.)
func TestFeatureVectorContainmentNecessary(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	dataset := gen.Molecules(rng, 40, gen.DefaultMoleculeConfig())
	for i, g := range dataset {
		q := gen.ExtractConnectedSubgraph(rng, g, 2+i%6)
		if !iso.SubIso(q, g) {
			t.Fatalf("graph %d: extracted pattern is not a subgraph", i)
		}
		if !vectorIn(q, g) {
			t.Errorf("graph %d: feature vector rejects a true embedding", i)
		}
	}
}

func TestFeatureVectorRejectsObviousNonContainment(t *testing.T) {
	small := graph.MustNew([]graph.Label{1, 2}, [][2]int{{0, 1}})
	big := graph.MustNew([]graph.Label{1, 1, 1}, [][2]int{{0, 1}, {1, 2}})
	if vectorIn(big, small) {
		t.Error("larger graph reported containable in smaller")
	}
	// Label 2 is absent from big: the label bloom must fire.
	if vectorIn(small, big) {
		t.Error("missing label not caught")
	}
}

// The degree tail catches shapes label and path-count summaries miss: two
// 3-stars cannot embed into one 6-star plus an isolated vertex (only one
// vertex of degree ≥ 3 exists), though label multisets dominate.
func TestFeatureVectorDegreeTail(t *testing.T) {
	twoStars := graph.MustNew(make([]graph.Label, 8),
		[][2]int{{0, 1}, {0, 2}, {0, 3}, {4, 5}, {4, 6}, {4, 7}})
	oneStar := graph.MustNew(make([]graph.Label, 8),
		[][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}})
	if iso.SubIso(twoStars, oneStar) {
		t.Fatal("test premise broken: embedding should not exist")
	}
	two, one := graph.ExtractFeatures(twoStars), graph.ExtractFeatures(oneStar)
	if two.TailIn(&one) {
		t.Error("degree tail failed to reject two centers vs one")
	}
}

func TestFeatureVectorSelfContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, g := range gen.Molecules(rng, 20, gen.DefaultMoleculeConfig()) {
		if !vectorIn(g, g) {
			t.Fatal("vector not contained in itself")
		}
	}
}
