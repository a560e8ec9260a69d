package ftv

import "graphcache/internal/graph"

// DegreeTailLen is the number of out-degree thresholds a FeatureVector
// tracks (degrees 1..DegreeTailLen; higher degrees saturate the last
// bucket's predecessors but still count toward every threshold they meet).
const DegreeTailLen = 8

// FeatureVector is a fixed-size, containment-safe summary of a graph: the
// vertex and edge counts, a bloom of the vertex-label set, a bloom of
// (label, minimum-degree) facts, and an out-degree tail histogram. The
// cache screens entry pairs with it ahead of the path-count dominance of
// GGSX's trie rows: every field is a necessary condition for subgraph
// isomorphism, so ContainedIn failing proves non-containment while
// costing a few dozen integer compares and no pointer chasing. Its degree
// facts add to what path counts can refute, and for a Method without a trie
// (NoFilter) it is the only screen.
//
// Soundness: a (label-preserving, direction-preserving) embedding of q
// into G maps each q-vertex v to a G-vertex with the same label and
// out-degree ≥ deg(v), and distinct vertices to distinct vertices. Hence
// |V|, |E|, the label set, the per-(label, degree≥k) facts and the number
// of vertices with out-degree ≥ k can only grow from q to G. Bloom
// collisions merge bits, which weakens but never unsounds the filter.
type FeatureVector struct {
	// Vertices and Edges are |V| and |E|.
	Vertices, Edges int32
	// LabelBits is a 64-bit bloom of the vertex-label set.
	LabelBits uint64
	// LabelDegBits is a 64-bit bloom of (label l, degree ≥ k) facts for
	// k in 1..4: bit set when some vertex with label l has out-degree ≥ k.
	LabelDegBits uint64
	// DegreeTail[k] counts vertices with out-degree ≥ k+1.
	DegreeTail [DegreeTailLen]int32
}

// labelDegThresholds bounds the k range of LabelDegBits.
const labelDegThresholds = 4

// golden is the 64-bit golden-ratio multiplier used to spread small label
// values across the bloom words.
const golden = 0x9E3779B97F4A7C15

func labelBit(l graph.Label) uint64 {
	return 1 << ((uint64(l) * golden) >> 58)
}

func labelDegBit(l graph.Label, k int) uint64 {
	return 1 << (((uint64(l)*31 + uint64(k)) * golden) >> 58)
}

// ExtractFeatures computes the graph's FeatureVector. For undirected
// graphs the out-degree of a vertex is its degree.
func ExtractFeatures(g *graph.Graph) FeatureVector {
	fv := FeatureVector{Vertices: int32(g.N()), Edges: int32(g.M())}
	for v := 0; v < g.N(); v++ {
		l := g.Label(v)
		fv.LabelBits |= labelBit(l)
		d := g.OutDegree(v)
		for k := 1; k <= d && k <= labelDegThresholds; k++ {
			fv.LabelDegBits |= labelDegBit(l, k)
		}
		if d > DegreeTailLen {
			d = DegreeTailLen
		}
		for k := 0; k < d; k++ {
			fv.DegreeTail[k]++
		}
	}
	return fv
}

// ContainedIn reports whether v's graph can possibly be subgraph-isomorphic
// to o's graph — a necessary condition, never sufficient. The zero
// FeatureVector (the empty graph) is contained in everything.
func (v FeatureVector) ContainedIn(o FeatureVector) bool {
	if v.Vertices > o.Vertices || v.Edges > o.Edges {
		return false
	}
	if v.LabelBits&^o.LabelBits != 0 || v.LabelDegBits&^o.LabelDegBits != 0 {
		return false
	}
	for k := range v.DegreeTail {
		if v.DegreeTail[k] > o.DegreeTail[k] {
			return false
		}
	}
	return true
}
