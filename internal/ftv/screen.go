package ftv

import "graphcache/internal/graph"

// ScreenKey packs the word-sized facts of a graph's graph.FeatureVector
// and of its trie Row into 40 pointer-free bytes, so a scan over many
// graphs reads one flat array and reaches a graph's row only when its key
// passes.
//
// The containment screen, hit detection's over the cached queries and
// catch-up's over the dataset additions, is one ordered pass of necessary
// conditions, each tested in one place, cheapest first:
//
//  1. the key (In, Holds): |V|, |E|, the label and label-degree blooms,
//     and the row bloom;
//  2. the degree tail (graph.FeatureVector.TailIn);
//  3. the row pass (Decoded.In, Decoded.Holds): node by node, the path
//     counts below the other side's watermark.
//
// A refusal at any stage proves non-containment; passing all three proves
// nothing, and the sub-iso test decides.
type ScreenKey struct {
	size      uint64 // |V|<<32 | |E|
	labels    uint64 // FeatureVector.LabelBits
	labelDegs uint64 // FeatureVector.LabelDegBits
	bloom     uint64 // the row's bloom
	top, mark int32  // the row's largest node and watermark
}

// NewScreenKey packs the key of the graph with vector fv and row r.
func NewScreenKey(fv graph.FeatureVector, r Row) ScreenKey {
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
// of k's row is below o's watermark (a node at or past it is one o was
// walked without). Word compares only, no branch: each half of the size
// word carries a guard bit above its count, so one subtraction compares
// both counts and a count that would borrow clears its guard.
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
