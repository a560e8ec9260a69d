package graph

// DegreeTailLen is the number of out-degree thresholds a FeatureVector
// tracks (degrees 1..DegreeTailLen; higher degrees saturate the last
// bucket's predecessors but still count toward every threshold they meet).
const DegreeTailLen = 8

// FeatureVector is a fixed-size, containment-safe summary of a graph: the
// vertex and edge counts, a bloom of the vertex-label set, a bloom of
// (label, minimum-degree) facts, and an out-degree tail histogram. Every
// field is a necessary condition for subgraph isomorphism, so a field of
// q exceeding G's proves q ⋢ G at the cost of a few integer compares. The
// word-sized fields are tested packed into a screening key (ftv.ScreenKey);
// the degree tail is tested by TailIn. Its degree facts add to what path
// counts can refute, and for a Method without a trie (NoFilter) it is the
// only screen.
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

func labelBit(l Label) uint64 {
	return 1 << ((uint64(l) * golden) >> 58)
}

func labelDegBit(l Label, k int) uint64 {
	return 1 << (((uint64(l)*31 + uint64(k)) * golden) >> 58)
}

// ExtractFeatures computes the graph's FeatureVector. For undirected
// graphs the out-degree of a vertex is its degree. Features returns the
// same vector, memoized on the graph.
func ExtractFeatures(g *Graph) FeatureVector {
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

// TailIn reports whether v's degree tail is covered by o's: no threshold
// counts more vertices in v's graph than in o's. It is the vector's one
// fact the screening key does not pack.
func (v *FeatureVector) TailIn(o *FeatureVector) bool {
	for k := range v.DegreeTail {
		if v.DegreeTail[k] > o.DegreeTail[k] {
			return false
		}
	}
	return true
}
