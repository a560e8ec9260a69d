package gen

import (
	"math/rand"

	"graphcache/internal/graph"
)

// MoleculeConfig parameterizes the AIDS-like molecule generator.
type MoleculeConfig struct {
	// MinV and MaxV bound the vertex count (inclusive). The AIDS average
	// is ≈ 45 vertices; the demo's 100-graph slice skews smaller.
	MinV, MaxV int
	// RingFrac is the expected number of ring-closing extra edges as a
	// fraction of tree edges; AIDS molecules average ≈ 1.05 edges/vertex,
	// i.e. a small ring fraction.
	RingFrac float64
	// MaxDegree caps vertex degree (typical chemistry valence limit).
	MaxDegree int
	// Labels is the atom alphabet size.
	Labels int
}

// DefaultMoleculeConfig mirrors the AIDS summary statistics.
func DefaultMoleculeConfig() MoleculeConfig {
	return MoleculeConfig{MinV: 20, MaxV: 50, RingFrac: 0.08, MaxDegree: 4, Labels: 12}
}

// Molecule generates one connected AIDS-like molecule graph: a random
// degree-capped tree plus a few ring-closing edges, labelled from the
// skewed atom distribution.
func Molecule(rng *rand.Rand, cfg MoleculeConfig) *graph.Graph { return molecule(rng, cfg, -1) }

// molecule is Molecule, built with the given graph id.
func molecule(rng *rand.Rand, cfg MoleculeConfig, id int) *graph.Graph {
	if cfg.MaxV < cfg.MinV {
		cfg.MaxV = cfg.MinV
	}
	if cfg.MaxDegree < 2 {
		cfg.MaxDegree = 2
	}
	n := cfg.MinV
	if cfg.MaxV > cfg.MinV {
		n += rng.Intn(cfg.MaxV - cfg.MinV + 1)
	}
	sampler := NewAIDSLabelSampler(cfg.Labels)
	labels := make([]graph.Label, n)
	for i := range labels {
		labels[i] = sampler.Sample(rng)
	}

	b := graph.NewBuilder(n).SetID(id).SetLabels(labels)
	deg := make([]int, n)
	// Random tree: attach vertex i to a uniformly chosen earlier vertex
	// with spare valence (fall back to any earlier vertex if none has).
	for i := 1; i < n; i++ {
		p := -1
		for attempt := 0; attempt < 8; attempt++ {
			c := rng.Intn(i)
			if deg[c] < cfg.MaxDegree {
				p = c
				break
			}
		}
		if p == -1 {
			p = rng.Intn(i)
		}
		b.AddEdge(i, p)
		deg[i]++
		deg[p]++
	}
	// Ring closures between degree-spare vertices.
	rings := int(float64(n-1)*cfg.RingFrac + 0.5)
	for r := 0; r < rings; r++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || deg[u] >= cfg.MaxDegree || deg[v] >= cfg.MaxDegree {
			continue
		}
		b.AddEdge(u, v)
		deg[u]++
		deg[v]++
	}
	return b.MustBuild()
}

// Molecules generates count molecules with ids 0..count-1, each built
// with its id: one header and one block a graph.
func Molecules(rng *rand.Rand, count int, cfg MoleculeConfig) []*graph.Graph {
	out := make([]*graph.Graph, count)
	for i := range out {
		out[i] = molecule(rng, cfg, i)
	}
	return out
}

// ErdosRenyi generates a G(n, p) graph with labels from the sampler.
// The result may be disconnected; callers needing connectivity should use
// Molecule or BarabasiAlbert.
func ErdosRenyi(rng *rand.Rand, n int, p float64, sampler *LabelSampler) *graph.Graph {
	labels := make([]graph.Label, n)
	for i := range labels {
		labels[i] = sampler.Sample(rng)
	}
	b := graph.NewBuilder(n).SetLabels(labels)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

// BarabasiAlbert generates a preferential-attachment graph: each new
// vertex attaches m edges to existing vertices chosen proportionally to
// degree (the "social network" shaped dataset of §3.1). The result is
// connected for m ≥ 1.
func BarabasiAlbert(rng *rand.Rand, n, m int, sampler *LabelSampler) *graph.Graph {
	if n < 2 {
		n = 2
	}
	if m < 1 {
		m = 1
	}
	labels := make([]graph.Label, n)
	for i := range labels {
		labels[i] = sampler.Sample(rng)
	}
	b := graph.NewBuilder(n).SetLabels(labels)
	// repeated holds one entry per edge endpoint: sampling uniformly from
	// it is degree-proportional sampling.
	repeated := make([]int, 0, 2*n*m)
	b.AddEdge(0, 1)
	repeated = append(repeated, 0, 1)
	for v := 2; v < n; v++ {
		attached := map[int]bool{}
		tries := 0
		for len(attached) < m && len(attached) < v && tries < 20*m {
			tries++
			t := repeated[rng.Intn(len(repeated))]
			if t != v && !attached[t] {
				attached[t] = true
			}
		}
		if len(attached) == 0 {
			attached[rng.Intn(v)] = true
		}
		for t := range attached {
			b.AddEdge(v, t)
			repeated = append(repeated, v, t)
		}
	}
	return b.MustBuild()
}

// ERDataset and BADataset generate count-sized datasets with position ids.

// ERDataset generates count Erdős–Rényi graphs.
func ERDataset(rng *rand.Rand, count, n int, p float64, labels int) []*graph.Graph {
	s := NewUniformLabelSampler(labels)
	out := make([]*graph.Graph, count)
	for i := range out {
		out[i] = ErdosRenyi(rng, n, p, s).WithID(i)
	}
	return out
}

// BADataset generates count Barabási–Albert graphs. Labels are uniform:
// hub-heavy topology combined with a near-single-label alphabet makes
// subgraph isomorphism needlessly pathological, which is not the workload
// shape the paper's social scenario implies (demographic labels are
// diverse).
func BADataset(rng *rand.Rand, count, n, m int, labels int) []*graph.Graph {
	s := NewUniformLabelSampler(labels)
	out := make([]*graph.Graph, count)
	for i := range out {
		out[i] = BarabasiAlbert(rng, n, m, s).WithID(i)
	}
	return out
}
