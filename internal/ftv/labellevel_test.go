package ftv_test

import (
	"math/rand"
	"testing"

	"graphcache/internal/bitset"
	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// labelDominated is the label-level containment test: p has at most g's
// vertices and edges, and each label on at most as many vertices. It is
// necessary for p ⊑ g whatever the direction and edge labels.
func labelDominated(p, g *graph.Graph) bool {
	if p.N() > g.N() || p.M() > g.M() {
		return false
	}
	counts := make(map[graph.Label]int)
	for _, l := range g.Labels() {
		counts[l]++
	}
	for _, l := range p.Labels() {
		if counts[l]--; counts[l] < 0 {
			return false
		}
	}
	return true
}

// labelCandidates is the candidate set of labelDominated: the graphs that
// dominate q for a subgraph query, those q dominates for a supergraph one.
func labelCandidates(dataset []*graph.Graph, q *graph.Graph, qt ftv.QueryType) *bitset.Set {
	out := bitset.New(len(dataset))
	for i, g := range dataset {
		if (qt == ftv.Subgraph && labelDominated(q, g)) || (qt == ftv.Supergraph && labelDominated(g, q)) {
			out.Add(i)
		}
	}
	return out
}

// TestGGSXPathOneWithinLabelDominance: GGSX at path length 1 is the
// label-level Method M. Its length-0 path counts are the label multiset,
// whose sum is |V|, and its length-1 counts sum to the directed edge
// traversals, so its candidates are a subset of label-multiset, |V| and |E|
// dominance's for every query in both directions — over molecules, social
// graphs, directed edge-labelled circuits and the four random graph kinds.
func TestGGSXPathOneWithinLabelDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	circuit := gen.DefaultCircuitConfig()
	datasets := map[string][]*graph.Graph{
		"molecules": molecules(62, 60),
		"social":    gen.BADataset(rng, 30, 24, 2, 6),
		"circuits":  gen.Circuits(rng, 30, circuit),
	}
	for kind, name := range []string{"undirected", "directed", "edge-labelled", "directed-edge-labelled"} {
		ds := make([]*graph.Graph, 60)
		for i := range ds {
			ds[i] = ftv.OracleGraph(rng, kind)
		}
		datasets[name] = ds
	}
	sampler := gen.NewUniformLabelSampler(6)
	for name, ds := range datasets {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(63))
			f := ftv.NewGGSX(ds, 1)
			var queries []*graph.Graph
			for i := 0; i < 40; i++ {
				src := ds[rng.Intn(len(ds))]
				switch i % 3 {
				case 0:
					queries = append(queries, gen.ExtractConnectedSubgraph(rng, src, 1+rng.Intn(6)))
				case 1:
					queries = append(queries, gen.Augment(rng, src, 1+rng.Intn(2), rng.Intn(3), sampler))
				default:
					queries = append(queries, ds[rng.Intn(len(ds))])
				}
			}
			var got, ref [2]int
			for qi, q := range queries {
				for _, qt := range []ftv.QueryType{ftv.Subgraph, ftv.Supergraph} {
					c, r := f.Candidates(q, qt), labelCandidates(ds, q, qt)
					if !subset(c, r) {
						t.Fatalf("query %d (%s): GGSX(1) candidates %v not within label dominance's %v", qi, qt, c, r)
					}
					got[qt] += c.Count()
					ref[qt] += r.Count()
				}
			}
			t.Logf("candidates GGSX(1) / label dominance: subgraph %d / %d, supergraph %d / %d",
				got[ftv.Subgraph], ref[ftv.Subgraph], got[ftv.Supergraph], ref[ftv.Supergraph])
			for _, qt := range []ftv.QueryType{ftv.Subgraph, ftv.Supergraph} {
				if got[qt] == 0 {
					t.Errorf("%s: no %s query had a candidate: the subset holds vacuously", name, qt)
				}
			}
		})
	}
}
