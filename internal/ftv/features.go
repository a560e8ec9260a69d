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

// ScreenKey packs the word-sized facts of a graph's FeatureVector and of
// its trie Row into 40 pointer-free bytes, so a scan over many graphs
// reads one flat array and reaches a graph's row only when its key
// passes. Its screens are implied by ContainedIn and the rows' bloom
// test (Decoded.In, Decoded.Holds): a key that refuses a pair proves
// those refuse it too, and a key that passes proves nothing (the degree
// tail and the rows are left to them).
type ScreenKey struct {
	size      uint64 // |V|<<32 | |E|
	labels    uint64 // FeatureVector.LabelBits
	labelDegs uint64 // FeatureVector.LabelDegBits
	bloom     uint64 // the row's bloom
	top, mark int32  // the row's largest node and watermark
}

// NewScreenKey packs the key of the graph with vector fv and row r.
func NewScreenKey(fv FeatureVector, r Row) ScreenKey {
	return ScreenKey{
		size:      uint64(uint32(fv.Vertices))<<32 | uint64(uint32(fv.Edges)),
		labels:    fv.LabelBits,
		labelDegs: fv.LabelDegBits,
		bloom:     r.bloom,
		top:       r.top,
		mark:      r.mark,
	}
}

// In reports whether k's graph passes the key screen into o's: |V| and
// |E| no larger, label blooms covered, and k's row bloom covered when all
// of k's row is below o's watermark (the rule of Decoded.In). Word
// compares only, no branch: each half of the size word carries a guard
// bit above its count, so one subtraction compares both counts and a
// count that would borrow clears its guard.
func (k *ScreenKey) In(o *ScreenKey) bool {
	const guards = 1<<63 | 1<<31
	bad := ((o.size|guards)-k.size)&guards ^ guards
	bad |= k.labels&^o.labels | k.labelDegs&^o.labelDegs
	below := uint64((int64(k.top) - int64(o.mark)) >> 63) // all ones when k.top < o.mark
	bad |= k.bloom &^ o.bloom & below
	return bad == 0
}

// Holds reports whether o's graph passes the key screen into k's.
func (k *ScreenKey) Holds(o *ScreenKey) bool { return o.In(k) }
