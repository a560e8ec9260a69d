// Package gen generates datasets, queries and workloads for GraphCache.
//
// The paper's demo runs over 100 graphs of the AIDS Antiviral Screen
// dataset with workloads "generated from graphs in dataset following
// established principles". The dataset itself is not redistributable, so
// this package synthesizes:
//
//   - AIDS-like molecule graphs (Molecules): sparse connected graphs with
//     chemistry-like degree caps and the skewed atom-label distribution
//     reported for AIDS (carbon ≈ 3/4 of atoms);
//   - Erdős–Rényi and Barabási–Albert graphs (the "synthetic datasets with
//     various characteristics" of §3.1);
//   - queries extracted as connected subgraphs of dataset graphs (the
//     established principle in the FTV literature) and supergraph queries
//     built by augmenting dataset graphs;
//   - workloads with controlled popularity skew (Zipf), containment chains
//     and resubmission — the knobs that differentiate replacement policies
//     in experiment EXP-I.
//
// All generators take an explicit *rand.Rand so every experiment is
// reproducible from a seed.
package gen

import (
	"math/rand"

	"graphcache/internal/graph"
)

// aidsLabelWeights approximates the atom-frequency profile of the AIDS
// antiviral dataset: label 0 ("C") dominates, a handful of heteroatoms
// follow, and a long rare tail completes the alphabet.
var aidsLabelWeights = []float64{
	0.745, // C
	0.090, // O
	0.080, // N
	0.030, // S
	0.020, // Cl
	0.012, // F
	0.008, // P
	0.005, // Br
	0.004, // I
	0.003, // Si
	0.002, // B
	0.001, // Se
}

// LabelSampler draws labels from a fixed discrete distribution.
type LabelSampler struct {
	cum []float64
}

// NewAIDSLabelSampler returns a sampler over the AIDS-like atom alphabet,
// truncated or geometrically extended to exactly labels symbols.
func NewAIDSLabelSampler(labels int) *LabelSampler {
	if labels <= 0 {
		labels = 1
	}
	w := make([]float64, labels)
	for i := 0; i < labels; i++ {
		if i < len(aidsLabelWeights) {
			w[i] = aidsLabelWeights[i]
		} else {
			w[i] = w[i-1] * 0.7 // geometric rare tail
		}
	}
	return NewLabelSampler(w)
}

// NewUniformLabelSampler returns a sampler uniform over labels symbols.
func NewUniformLabelSampler(labels int) *LabelSampler {
	if labels <= 0 {
		labels = 1
	}
	w := make([]float64, labels)
	for i := range w {
		w[i] = 1
	}
	return NewLabelSampler(w)
}

// NewLabelSampler builds a sampler from unnormalized weights.
func NewLabelSampler(weights []float64) *LabelSampler {
	cum := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		sum += w
		cum[i] = sum
	}
	for i := range cum {
		cum[i] /= sum
	}
	return &LabelSampler{cum: cum}
}

// Sample draws one label.
func (s *LabelSampler) Sample(rng *rand.Rand) graph.Label {
	x := rng.Float64()
	for i, c := range s.cum {
		if x <= c {
			return graph.Label(i)
		}
	}
	return graph.Label(len(s.cum) - 1)
}

// AssignIDs returns the graphs re-tagged with their slice positions as ids,
// the convention every dataset consumer in this repo relies on.
func AssignIDs(gs []*graph.Graph) []*graph.Graph {
	out := make([]*graph.Graph, len(gs))
	for i, g := range gs {
		out[i] = g.WithID(i)
	}
	return out
}
