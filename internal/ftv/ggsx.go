package ftv

import (
	"fmt"
	"math/bits"
	"sync"

	"graphcache/internal/bitset"
	"graphcache/internal/graph"
)

// GGSX is a GraphGrepSX-style FTV filter: a suffix trie over the
// vertex-label sequences of simple paths with at most MaxLen edges,
// annotated with per-graph occurrence counts.
//
// Soundness: an embedding of q into G maps every directed simple path of q
// to a distinct directed simple path of G with the same label sequence, so
// count_q(f) ≤ count_G(f) for every path feature f is necessary for
// q ⊑ G (and dually for supergraph queries). Both dataset and query paths
// are enumerated as directed traversals, so the counting convention
// cancels out. The layout only changes how that per-feature predicate is
// evaluated, never the predicate: candidate sets are bit-identical
// whichever way a node is encoded.
//
// Layout. The trie has a node per distinct label-sequence prefix. A node's
// postings — (graph id, count) for every graph containing the feature —
// are held in whichever of two encodings is smaller:
//
//   - list: the pairs sorted by gid, 8 bytes each;
//   - bitmap (countSlices): the counts bit-sliced, one []uint64 per binary
//     digit and ⌈(largest gid+1)/64⌉ words each, so "count ≥ c" is a few
//     word operations per 64 graphs, ANDed straight into the query's
//     candidate words. (One bitmap per distinct count would answer with a
//     single AND, but molecule paths reach counts of 250 over 100 distinct
//     values: bits.Len(250) = 8 slices beat the list, 100 bitmaps do not.)
//
// Both sizes depend on the node's contents alone, so an index grown by
// WithGraph has exactly the layout, and IndexBytes, of one built from
// scratch. The rule is internal/bitset's container rule; nobody sets it.
//
// A supergraph query asks whether q dominates every feature of G, which is
// per graph: forward holds each graph's (node, count) row and blooms a
// 64-bit summary of the row's node ids, so the query skips every graph
// with a feature bit it lacks and checks the rows of the few that remain
// against a dense per-query count array.
//
// Copy-on-write. WithGraph writes nothing reachable from the receiver. It
// copies the trie nodes the new graph's paths touch: a touched list is
// copied whole; a touched bitmap node copies the slices the new count has
// a one in (all of them when the gid starts a new word) and shares the
// rest; a node the insert takes across the size rule is re-encoded. A
// published countSlices is immutable (cowpublish checks it), and a
// snapshot taken before an insert never sees the new gid.
type GGSX struct {
	maxLen  int
	n       int
	root    *trieNode
	nodes   []*trieNode   // by node id
	forward [][]nodeCount // by gid: the graph's features, in first-visit order
	blooms  []uint64      // by gid: OR of featureBit over the forward row
	bytes   int
}

type trieNode struct {
	id       int32
	children map[trieKey]*trieNode
	postings []posting    // list encoding, sorted by gid; nil under the bitmap encoding
	slices   *countSlices // bitmap encoding; nil under the list encoding
}

// trieKey is one trie step: the edge label leading to the vertex (0 for
// the path's first vertex and for unlabelled edges) plus the vertex label.
// Edge labels participating in the key carry the paper's generalization to
// edge-labelled graphs through the filter.
type trieKey struct {
	edge   graph.Label
	vertex graph.Label
}

type posting struct {
	gid   int32
	count int32
}

type nodeCount struct {
	node  int32
	count int32
}

// countSlices is the bitmap encoding of a node's postings: bit g of
// slice[b] is binary digit b of count_g, and a graph without the feature
// has no bit in any slice. Every slice has wordsFor(largest gid) words.
//
//gclint:cow
type countSlices struct {
	slice  [][]uint64
	graphs int // postings encoded
}

// wordsFor is the number of 64-bit words a bitmap needs to hold bit gid.
func wordsFor(gid int32) int { return int(gid)>>6 + 1 }

// bitmapSmaller is the size rule: slices of the given word count against
// one 8-byte word per posting.
func bitmapSmaller(slices, words, postings int) bool { return slices*words < postings }

// encodeSlices returns the bitmap encoding of a non-empty posting list,
// or nil when the list is no larger.
func encodeSlices(ps []posting) *countSlices {
	var maxCount int32
	for _, p := range ps {
		maxCount = max(maxCount, p.count)
	}
	s, w := bits.Len32(uint32(maxCount)), wordsFor(ps[len(ps)-1].gid)
	if !bitmapSmaller(s, w, len(ps)) {
		return nil
	}
	slice := make([][]uint64, s)
	for b := range slice {
		slice[b] = make([]uint64, w) // one array each: an insert replaces them one by one
	}
	for _, p := range ps {
		for c := uint32(p.count); c != 0; c &= c - 1 {
			slice[bits.TrailingZeros32(c)][p.gid>>6] |= 1 << (p.gid & 63)
		}
	}
	return &countSlices{slice, len(ps)}
}

// postings decodes the bitmap encoding back into the sorted list.
func (cs *countSlices) postings() []posting {
	out := make([]posting, 0, cs.graphs)
	for i := range cs.slice[0] {
		var present uint64
		for _, sl := range cs.slice {
			present |= sl[i]
		}
		for ; present != 0; present &= present - 1 {
			bit := bits.TrailingZeros64(present)
			var c int32
			for b, sl := range cs.slice {
				c |= int32(sl[i]>>bit&1) << b
			}
			out = append(out, posting{int32(i<<6 + bit), c})
		}
	}
	return out
}

// with returns the encoding of cs's postings plus (gid, c), for a gid above
// every encoded one. A slice is copied only when c has a one in its digit
// or gid needs a longer word array; the others are shared with cs.
func (cs *countSlices) with(gid, c int32) *countSlices {
	w := wordsFor(gid)
	slice := make([][]uint64, max(len(cs.slice), bits.Len32(uint32(c))))
	for b := range slice {
		var old []uint64
		if b < len(cs.slice) {
			old = cs.slice[b]
		}
		if c>>b&1 == 0 && len(old) == w {
			slice[b] = old
			continue
		}
		grown := make([]uint64, w)
		copy(grown, old)
		grown[gid>>6] |= uint64(c>>b&1) << (gid & 63)
		slice[b] = grown
	}
	return &countSlices{slice, cs.graphs + 1}
}

// andAtLeast intersects acc with the graphs whose count is ≥ c (c ≥ 1) and
// reports whether any bit of acc survives. Per word it compares all 64
// counts with c at once, most significant digit first: gt collects the
// graphs already decided greater, eq those still equal on every digit seen.
//
//gclint:noalloc
func (cs *countSlices) andAtLeast(acc []uint64, c int32) bool {
	if c>>len(cs.slice) != 0 {
		return false // c has more digits than any stored count
	}
	w := len(cs.slice[0])
	var alive uint64
	for i, a := range acc[:w] {
		if a == 0 {
			continue
		}
		gt, eq := uint64(0), ^uint64(0)
		for b := len(cs.slice) - 1; b >= 0; b-- {
			if digit := cs.slice[b][i]; c>>b&1 != 0 {
				eq &= digit
			} else {
				gt |= eq & digit
				eq &^= digit
			}
		}
		a &= gt | eq
		acc[i] = a
		alive |= a
	}
	clear(acc[w:])
	return alive != 0
}

// andPostings is andAtLeast for the list encoding: ps is sorted by gid, so
// one pass rewrites acc word by word, clearing the words no posting reaches.
//
//gclint:noalloc
func andPostings(acc []uint64, ps []posting, c int32) bool {
	var alive uint64
	next := 0 // first word of acc not yet rewritten
	for k := 0; k < len(ps); {
		wi := int(ps[k].gid >> 6)
		var keep uint64
		for ; k < len(ps) && int(ps[k].gid>>6) == wi; k++ {
			if ps[k].count >= c {
				keep |= 1 << (ps[k].gid & 63)
			}
		}
		clear(acc[next:wi])
		acc[wi] &= keep
		alive |= acc[wi]
		next = wi + 1
	}
	clear(acc[next:])
	return alive != 0
}

// featureBit maps a trie node id to its bit of the per-graph bloom word.
func featureBit(id int32) uint64 { return 1 << (uint32(id) * 0x9E3779B1 >> 26) }

// dominated reports whether counts covers every (node, count) of the row.
//
//gclint:noalloc
func dominated(row []nodeCount, counts []int32) bool {
	for _, nc := range row {
		if counts[nc.node] < nc.count {
			return false
		}
	}
	return true
}

// pathWalk enumerates the directed simple paths of a graph with ≤ maxLen
// edges (following out-edges, which covers both directions for undirected
// graphs) down a trie, counting occurrences per trie node in a dense
// array. step picks the trie discipline: create nodes (build), copy them
// on write (WithGraph), or only look them up (queries). Walks are pooled:
// between uses counts is all zero and inPath all false.
type pathWalk struct {
	g       *graph.Graph
	maxLen  int
	step    func(nd *trieNode, k trieKey) *trieNode // nil: the trie has no such path
	missing bool                                    // step returned nil at least once
	counts  []int32                                 // by node id
	touched []int32                                 // ids with counts[id] > 0, in first-visit order
	inPath  []bool
	words   []uint64 // candidate words of the query in flight
}

var walkPool = sync.Pool{New: func() any { return new(pathWalk) }}

// newWalk takes a walk from the pool and runs it over g from root, over a
// trie of the given node count.
func newWalk(g *graph.Graph, maxLen, nodes int, root *trieNode, step func(*trieNode, trieKey) *trieNode) *pathWalk {
	w := walkPool.Get().(*pathWalk)
	w.g, w.maxLen, w.step = g, maxLen, step
	if len(w.counts) < nodes {
		w.counts = make([]int32, nodes)
	}
	if len(w.inPath) < g.N() {
		w.inPath = make([]bool, g.N())
	}
	for v := 0; v < g.N(); v++ {
		w.visit(root, trieKey{0, g.Label(v)}, v, 0)
	}
	return w
}

// visit steps from node along k into vertex v, which ends a path of the
// given number of edges, counts it and extends it.
func (w *pathWalk) visit(node *trieNode, k trieKey, v, edges int) {
	child := w.step(node, k)
	if child == nil {
		w.missing = true
		return
	}
	for int(child.id) >= len(w.counts) { // a node created by this walk
		w.counts = append(w.counts, 0)
	}
	if w.counts[child.id] == 0 {
		w.touched = append(w.touched, child.id)
	}
	w.counts[child.id]++
	if edges == w.maxLen {
		return
	}
	w.inPath[v] = true
	for _, u := range w.g.OutNeighbors(v) {
		if !w.inPath[u] {
			w.visit(child, trieKey{w.g.EdgeLabel(v, int(u)), w.g.Label(int(u))}, int(u), edges+1)
		}
	}
	w.inPath[v] = false
}

// row returns the walked graph's forward row and bloom word.
func (w *pathWalk) row() (row []nodeCount, bloom uint64) {
	row = make([]nodeCount, len(w.touched))
	for i, id := range w.touched {
		row[i] = nodeCount{id, w.counts[id]}
		bloom |= featureBit(id)
	}
	return row, bloom
}

// release zeroes what the walk counted and returns it to the pool.
func (w *pathWalk) release() {
	for _, id := range w.touched {
		w.counts[id] = 0
	}
	w.touched, w.missing, w.g, w.step = w.touched[:0], false, nil, nil
	walkPool.Put(w)
}

// lookupChild is the query-side step: unseen paths are reported, not created.
func lookupChild(nd *trieNode, k trieKey) *trieNode { return nd.children[k] }

// NewGGSX builds the index over the dataset, indexing label paths with up
// to maxLen edges (maxLen+1 vertices). maxLen is the "feature size" knob
// of experiment EXP-II; GraphGrepSX's customary default is 4.
func NewGGSX(dataset []*graph.Graph, maxLen int) *GGSX {
	if maxLen < 0 {
		maxLen = 0
	}
	x := &GGSX{
		maxLen:  maxLen,
		n:       len(dataset),
		root:    &trieNode{id: -1, children: make(map[trieKey]*trieNode)},
		forward: make([][]nodeCount, len(dataset)),
		blooms:  make([]uint64, len(dataset)),
	}
	for gid, g := range dataset {
		if g == nil { // tombstoned id: indexed as empty
			continue
		}
		w := newWalk(g, maxLen, len(x.nodes), x.root, x.child)
		x.forward[gid], x.blooms[gid] = w.row()
		w.release()
		for _, nc := range x.forward[gid] { // gids ascend, so every list stays sorted
			nd := x.nodes[nc.node]
			nd.postings = append(nd.postings, posting{int32(gid), nc.count})
		}
	}
	for _, nd := range x.nodes {
		if cs := encodeSlices(nd.postings); cs != nil {
			nd.slices, nd.postings = cs, nil
		}
	}
	x.bytes = x.computeBytes()
	return x
}

// child returns the child of nd for the key, creating it if needed.
func (x *GGSX) child(nd *trieNode, k trieKey) *trieNode {
	if c, ok := nd.children[k]; ok {
		return c
	}
	c := &trieNode{id: int32(len(x.nodes)), children: make(map[trieKey]*trieNode)}
	nd.children[k] = c
	x.nodes = append(x.nodes, c)
	return c
}

// WithGraph implements InsertableFilter: an incremental, copy-on-write
// trie insert. Only g's own label paths are enumerated (the walk NewGGSX
// does for one dataset graph — O(graph)); every trie node the walk touches
// is replaced by a private copy carrying the new posting, and every
// untouched node, encoding and child map is shared with the receiver (the
// GGSX comment has the rules). No other dataset graph is revisited, where
// the factory rebuild re-enumerates the paths of the whole dataset.
func (x *GGSX) WithGraph(gid int, g *graph.Graph) Filter {
	if gid < x.n {
		panic(fmt.Sprintf("ftv: GGSX.WithGraph gid %d is inside the indexed id space [0,%d) — additions only append", gid, x.n))
	}
	x2 := &GGSX{
		maxLen:  x.maxLen,
		n:       gid + 1,
		nodes:   make([]*trieNode, len(x.nodes)),
		forward: make([][]nodeCount, gid+1),
		blooms:  make([]uint64, gid+1),
		// Positions [x.n, gid) are implicit tombstones: indexed as empty,
		// but still charged the per-graph overhead computeBytes counts.
		bytes: x.bytes + perGraphBytes*(gid+1-x.n),
	}
	copy(x2.nodes, x.nodes)
	copy(x2.forward, x.forward)
	copy(x2.blooms, x.blooms)

	// The root is always touched (every vertex starts a path); its private
	// copy initially shares the child map, cloned only if g introduces a
	// new first-step feature.
	x2.root = &trieNode{id: -1, children: x.root.children}
	ins := &ggsxInserter{x2: x2, priv: map[int32]*trieNode{-1: x2.root}, ownMap: map[int32]bool{}}
	w := newWalk(g, x.maxLen, len(x.nodes), x2.root, ins.step)
	row, bloom := w.row()
	w.release()
	for _, nc := range row {
		nd := ins.priv[nc.node] // every counted node was stepped into, hence private
		x2.bytes -= nd.payloadBytes()
		nd.addPosting(int32(gid), nc.count)
		x2.bytes += nd.payloadBytes()
	}
	x2.forward[gid], x2.blooms[gid] = row, bloom
	x2.bytes += 8 * len(row)
	return x2
}

// addPosting records (gid, c) on a private node, gid above every posted
// one, and leaves the node in the encoding the size rule picks for its
// new contents.
func (nd *trieNode) addPosting(gid, c int32) {
	if nd.slices != nil {
		nd.slices = nd.slices.with(gid, c)
		if cs := nd.slices; !bitmapSmaller(len(cs.slice), len(cs.slice[0]), cs.graphs) {
			nd.postings, nd.slices = cs.postings(), nil
		}
		return
	}
	// Full slice expression: the append reallocates instead of scribbling
	// over a posting array the receiver still exposes.
	nd.postings = append(nd.postings[:len(nd.postings):len(nd.postings)], posting{gid, c})
	if cs := encodeSlices(nd.postings); cs != nil {
		nd.slices, nd.postings = cs, nil
	}
}

// ggsxInserter carries the copy-on-write state of one WithGraph call:
// priv maps node ids (-1 for the root) to their private copies, ownMap
// marks private nodes whose child map has already been cloned (maps,
// unlike slices, cannot be shared once written).
type ggsxInserter struct {
	x2     *GGSX
	priv   map[int32]*trieNode
	ownMap map[int32]bool
}

// step descends from the PRIVATE node nd along key k, returning a private
// child: an existing shared child is copied (sharing its postings and
// child map until they are written), a missing one is created fresh —
// mirroring what NewGGSX's child() would have built.
func (ins *ggsxInserter) step(nd *trieNode, k trieKey) *trieNode {
	if c, ok := nd.children[k]; ok {
		if p, ok := ins.priv[c.id]; ok {
			return p
		}
		p := &trieNode{id: c.id, children: c.children, postings: c.postings, slices: c.slices}
		ins.priv[c.id] = p
		ins.x2.nodes[c.id] = p
		ins.ownChildren(nd)[k] = p
		return p
	}
	c := &trieNode{id: int32(len(ins.x2.nodes)), children: make(map[trieKey]*trieNode)}
	ins.priv[c.id] = c
	ins.ownMap[c.id] = true
	ins.x2.nodes = append(ins.x2.nodes, c)
	ins.ownChildren(nd)[k] = c
	ins.x2.bytes += nodeBytes + childBytes // node struct + the parent's new map entry
	return c
}

// ownChildren returns nd's child map, cloning it first if it is still
// shared with the receiver. Caller is about to write into it.
func (ins *ggsxInserter) ownChildren(nd *trieNode) map[trieKey]*trieNode {
	if !ins.ownMap[nd.id] {
		m := make(map[trieKey]*trieNode, len(nd.children)+1)
		for k, v := range nd.children {
			m[k] = v
		}
		nd.children = m
		ins.ownMap[nd.id] = true
	}
	return nd.children
}

// Name implements Filter.
func (x *GGSX) Name() string { return "ggsx" }

// MaxLen returns the indexed feature size (path length in edges).
func (x *GGSX) MaxLen() int { return x.maxLen }

// NodeCount returns the number of trie nodes (distinct features).
func (x *GGSX) NodeCount() int { return len(x.nodes) }

// IndexBytes implements Filter.
func (x *GGSX) IndexBytes() int { return x.bytes }

// The byte model of IndexBytes: per trie node its struct and map header,
// per child a map entry, per graph its forward-row header and bloom word;
// postings and forward entries are 8 bytes each, bitmap words 8.
const (
	nodeBytes     = 64
	childBytes    = 16
	perGraphBytes = 24 + 8
)

// payloadBytes is the size of the node's postings in their encoding.
func (nd *trieNode) payloadBytes() int {
	if nd.slices != nil {
		return 8 * len(nd.slices.slice) * len(nd.slices.slice[0])
	}
	return 8 * len(nd.postings)
}

func (x *GGSX) computeBytes() int {
	b := childBytes * len(x.root.children)
	for _, nd := range x.nodes {
		b += nodeBytes + childBytes*len(nd.children) + nd.payloadBytes()
	}
	for _, row := range x.forward {
		b += perGraphBytes + 8*len(row)
	}
	return b
}

// Candidates implements Filter. Subgraph: G is a candidate iff
// count_G(f) ≥ count_q(f) for every query feature f — one AND per feature
// into the candidate words, in any order. Supergraph: iff count_G(f) ≤
// count_q(f) for every feature f of G — the bloom word rules out a graph
// owning a feature the query lacks, the forward row decides the rest.
func (x *GGSX) Candidates(q *graph.Graph, qt QueryType) *bitset.Set {
	w := newWalk(q, x.maxLen, len(x.nodes), x.root, lookupChild)
	defer w.release()
	if nw := (x.n + 63) / 64; cap(w.words) < nw {
		w.words = make([]uint64, nw)
	} else {
		w.words = w.words[:nw]
	}
	if qt == Supergraph { // paths the trie lacks are fine here
		var qbloom uint64
		for _, id := range w.touched {
			qbloom |= featureBit(id)
		}
		clear(w.words)
		for gid, bloom := range x.blooms {
			if bloom&^qbloom == 0 && dominated(x.forward[gid], w.counts) {
				w.words[gid>>6] |= 1 << (gid & 63)
			}
		}
		return bitset.FromWords(x.n, w.words)
	}
	if w.missing {
		return bitset.New(x.n) // some query path occurs in no dataset graph
	}
	if len(w.touched) == 0 {
		return bitset.NewFull(x.n) // empty query matches everything
	}
	for i := range w.words {
		w.words[i] = ^uint64(0) // bits ≥ n fall to the first feature: no encoding holds them
	}
	for _, id := range w.touched {
		var alive bool
		if nd := x.nodes[id]; nd.slices != nil {
			alive = nd.slices.andAtLeast(w.words, w.counts[id])
		} else {
			alive = andPostings(w.words, nd.postings, w.counts[id])
		}
		if !alive {
			return bitset.New(x.n)
		}
	}
	return bitset.FromWords(x.n, w.words)
}
