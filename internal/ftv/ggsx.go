package ftv

import (
	"encoding/binary"
	"fmt"
	"iter"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

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
// Layout. The trie has a node per distinct label-sequence prefix, and
// each node holds its children in one array sorted by key. A node's
// postings — (graph id, count) for every graph containing the feature —
// are held in one of two encodings:
//
//   - list (postingList): the pairs by ascending gid, packed into one
//     allocation as uvarints — the gap up from the previous gid (from −1
//     before the first, so no gap is zero), then the count — behind a
//     header of the posting count, the last gid and the binary digits of
//     the largest count, so an insert applies the size rule and writes its
//     gap without decoding a posting;
//   - bitmap (countSlices): the counts bit-sliced, one bitmap per binary
//     digit and ⌈(largest gid+1)/64⌉ words each, in 64-byte blocks of 512
//     graphs behind a directory per digit, so "count ≥ c" is a few word
//     operations per 64 graphs, ANDed straight into the query's candidate
//     words. (One bitmap per distinct count would answer with a single
//     AND, but molecule paths reach counts of 250 over 100 distinct
//     values: bits.Len(250) = 8 slices beat the list, 100 bitmaps do not.)
//
// The size rule is a cost rule, not a byte count: a node is a bitmap when
// digits × words < postings, a list posting counted as one word. A rule
// by packed bytes would move most bitmap nodes — the dense features every
// subgraph query ANDs — to lists decoded a posting at a time instead of
// 64 graphs a word. Both sides depend on the node's contents alone, so an
// index grown by WithGraph has exactly the layout, the packed bytes and
// the IndexBytes of one built from scratch
// (TestInsertChainLayoutMatchesBuild). The rule is internal/bitset's
// container rule; nobody sets it.
//
// A supergraph query asks whether q dominates every feature of G, which is
// per graph: forward holds each graph's (node, count) row and blooms a
// 64-bit summary of the row's node ids, so the query skips every graph
// with a feature bit it lacks and checks the rows of the few that remain
// against a dense per-query count array. A row is packed: its pairs sorted
// by descending node id, as uvarints — the first node's id, then the gap
// down to each next id — each followed by its count, so counts stay exact
// and ids have no width limit, and nearly every value is one byte.
// Descending order puts the rarer, later-created features first, where
// the check stops at the first feature q lacks.
//
// Copy-on-write. WithGraph writes nothing reachable from the receiver. It
// enumerates the new graph's paths and copies the trie nodes they touch: a
// touched list is packed anew, its bytes plus the new posting in one
// allocation; a touched bitmap node gets a new directory that shares
// every block but one copy per digit the new count has a one in, the block
// the gid lands in (a gid past the last block lengthens every digit with
// the one shared zero block, which nothing writes); a node the insert
// takes across the size rule is re-encoded; a touched node's children
// array is copied, 16 bytes a child, when a child of it is copied or
// created (never appended to in place: its spare capacity may be the
// receiver's). So an insert copies a few short lists, a few 64-byte
// blocks and one small array per touched node, not ⌈n/64⌉ words per
// digit. Each index has its own even gen, two above its receiver's, and
// stamps the nodes it copies or creates with it, so the walk tells a node
// it already copied from one it shares by the stamp alone. The per-graph
// forward rows and blooms are chunked arrays: the insert copies their
// directories and the one chunk its gid lands in. Nothing else is copied,
// and no other graph's paths are revisited. A published packed list,
// countSlices, children array or chunk is immutable
// (TestInsertSharesUntouchedChunks, TestInsertCopiesOneBlockPerSetDigit
// and TestGGSXCandidatesMatchReferenceAcrossBlocks fail on a write to
// one), and a snapshot taken before an insert never sees the new gid.
type GGSX struct {
	maxLen  int
	n       int
	root    *trieNode
	nodes   int             // trie nodes, excluding the root
	gen     uint32          // even stamp of the insert that made this index; 0 for a build
	forward chunked[[]byte] // by gid: the graph's features, packed (packRow)
	blooms  chunked[uint64] // by gid: OR of featureBit over the forward row
	bytes   int
}

// trieNode is 48 bytes: stamp fills the padding after id, and each
// encoding is one pointer.
type trieNode struct {
	id       int32
	stamp    uint32       // gen of the index that made this node, |1 once it owns its children array
	children []kid        // sorted by key
	list     *byte        // list encoding, packed (postingList); nil when empty or under the bitmap encoding
	slices   *countSlices // bitmap encoding; nil under the list encoding
}

// kid is one child of a trie node: the step's key and the node it leads to.
type kid struct {
	k  trieKey
	nd *trieNode
}

// child returns where k is in nd's children, or where it would be
// inserted, and whether it is there: a linear scan over at most eight
// children, a binary search narrowing larger arrays to eight first.
func (nd *trieNode) child(k trieKey) (int, bool) {
	kids, v, i := nd.children, k.ord(), 0
	for len(kids) > 8 {
		h := len(kids) / 2
		if kids[h].k.ord() <= v {
			kids, i = kids[h:], i+h
		} else {
			kids = kids[:h]
		}
	}
	for j, c := range kids {
		if o := c.k.ord(); o >= v {
			return i + j, o == v
		}
	}
	return i + len(kids), false
}

// trieKey is one trie step: the edge label leading to the vertex (0 for
// the path's first vertex and for unlabelled edges) plus the vertex label.
// Edge labels participating in the key carry the paper's generalization to
// edge-labelled graphs through the filter.
type trieKey struct {
	edge   graph.Label
	vertex graph.Label
}

// ord is the key's place in a children array: edge label, then vertex label.
func (k trieKey) ord() uint32 { return uint32(k.edge)<<16 | uint32(k.vertex) }

type posting struct {
	gid   int32
	count int32
}

// postingList is a list node's postings in the packed format, and the one
// writer of that format. The postings ascend by gid, each written as
// uvarint(gid − previous gid) — the previous gid starting at −1, so no
// gap is zero — then uvarint(count). pack puts a list in one allocation
// that trieNode.list points at: a header of uvarints — the length of what
// follows that length, the posting count, the last gid — and the digit
// count as one byte, then the postings. The header is all the size rule
// and an insert's gap read, so neither decodes a posting. A packed list is
// never written once published: an insert packs a new one.
type postingList struct {
	n      int    // postings
	last   int32  // largest gid; unset while n is 0
	digits int    // bits.Len32 of the largest count: the digits a bitmap of the list has
	body   []byte // the postings, packed
}

// add appends (gid, c), gid above every posted one and c ≥ 1.
func (l *postingList) add(gid, c int32) {
	prev := l.last
	if l.n == 0 {
		prev = -1
	}
	l.body = binary.AppendUvarint(l.body, uint64(gid-prev))
	l.body = binary.AppendUvarint(l.body, uint64(c))
	l.n, l.last, l.digits = l.n+1, gid, max(l.digits, bits.Len32(uint32(c)))
}

// pack returns the list as one allocation of its exact size, or nil for
// the empty list.
func (l *postingList) pack() *byte {
	if l.n == 0 {
		return nil
	}
	var h [2*binary.MaxVarintLen64 + 1]byte
	hdr := binary.AppendUvarint(h[:0], uint64(l.n))
	hdr = binary.AppendUvarint(hdr, uint64(l.last))
	hdr = append(hdr, byte(l.digits))
	rest := len(hdr) + len(l.body)
	out := make([]byte, 0, (bits.Len(uint(rest))+6)/7+rest) // a uvarint holds 7 bits a byte
	out = binary.AppendUvarint(out, uint64(rest))
	out = append(append(out, hdr...), l.body...)
	return &out[0]
}

// packedBytes returns the whole allocation of the packed list p points at,
// nil for the empty list. The leading length is read a byte at a time,
// since nothing past it is known to be allocated until it is read.
func packedBytes(p *byte) []byte {
	if p == nil {
		return nil
	}
	rest, k := 0, 0
	for shift := 0; ; shift += 7 {
		b := *(*byte)(unsafe.Add(unsafe.Pointer(p), k))
		rest, k = rest|int(b&0x7f)<<shift, k+1
		if b < 0x80 {
			return unsafe.Slice(p, k+rest)
		}
	}
}

// listOf reads the packed list p points at. Its body is the packed
// allocation itself, at full capacity, so an append to it copies.
func listOf(p *byte) postingList {
	b := packedBytes(p)
	if b == nil {
		return postingList{}
	}
	_, i := uvarint(b, 0)
	n, i := uvarint(b, i)
	last, i := uvarint(b, i)
	return postingList{int(n), int32(last), int(b[i]), b[i+1:]}
}

// all yields the postings in gid order.
func (l postingList) all() iter.Seq[posting] {
	return func(yield func(posting) bool) {
		gid := int32(-1)
		for i := 0; i < len(l.body); {
			var gap, c uint64
			gap, c, i = nextPosting(l.body, i)
			gid += int32(gap)
			if !yield(posting{gid, int32(c)}) {
				return
			}
		}
	}
}

// nextPosting decodes the posting at body[i:]: its gap, its count and the
// index past it. A gap and a count of one byte each, nearly every
// posting, take one test of both bytes.
func nextPosting(body []byte, i int) (gap, count uint64, next int) {
	if i+1 < len(body) && (body[i]|body[i+1])&0x80 == 0 {
		return uint64(body[i]), uint64(body[i+1]), i + 2
	}
	gap, i = uvarint(body, i)
	count, i = uvarint(body, i)
	return gap, count, i
}

// String prints the postings as a []posting would print.
func (l postingList) String() string { return fmt.Sprint(slices.Collect(l.all())) }

// countSlices is the bitmap encoding of a node's postings: bit g of
// digit b is binary digit b of count_g, and a graph without the feature
// has no bit in any digit. Digit b is slice[b], a directory of 64-byte
// blocks of 512 graphs: graph g is bit g&63 of word g>>6&7 of block
// g>>9. Every digit has words = wordsFor(largest gid) words in
// ⌈words/8⌉ blocks, and the words past words in the last block are
// zero. A block that holds no bit is zeroBlock; used counts the others.
// Neither a directory nor a block is written once published: an insert
// builds new ones.
type countSlices struct {
	slice  [][]*block // by digit
	words  int        // wordsFor(largest gid): what the size rule counts
	graphs int        // postings encoded
	used   int        // blocks of their own: every (digit, block) that holds a bit
}

// block is 512 graphs of one digit: the unit an insert copies.
type block = [8]uint64

// blockBits is log2 of the graphs per block.
const blockBits = 9

// zeroBlock is every block a growth adds: shared by every digit of every
// index, and never written (an insert copies a block before setting a bit).
var zeroBlock block

// wordsFor is the number of 64-bit words a bitmap needs to hold bit gid.
func wordsFor(gid int32) int { return int(gid)>>6 + 1 }

// blocksFor is the number of blocks that hold the given number of words.
func blocksFor(words int) int { return (words + 7) >> 3 }

// bitmapSmaller is the size rule: digits of the given word count against
// one word per posting, a cost rule rather than a byte count (the GGSX
// comment says why).
func bitmapSmaller(digits, words, postings int) bool { return digits*words < postings }

// encodeSlices returns the bitmap encoding of a non-empty posting list,
// or nil when the list is no larger.
func encodeSlices(ps iter.Seq[posting]) *countSlices {
	var maxCount, last int32
	n := 0
	for p := range ps {
		maxCount, last = max(maxCount, p.count), p.gid
		n++
	}
	s, w := bits.Len32(uint32(maxCount)), wordsFor(last)
	if !bitmapSmaller(s, w, n) {
		return nil
	}
	// One array of directory entries for all digits, and one of the blocks
	// that hold a bit; the rest are zeroBlock (high digits are sparse). An
	// insert replaces blocks and directories, never writes them.
	nb := blocksFor(w)
	dirs, used := make([]*block, s*nb), 0
	for p := range ps {
		for c := uint32(p.count); c != 0; c &= c - 1 {
			if i := bits.TrailingZeros32(c)*nb + int(p.gid>>blockBits); dirs[i] == nil {
				dirs[i] = &zeroBlock // marks the block used, until it has its own below
				used++
			}
		}
	}
	blocks, j := make([]block, used), 0
	for i, d := range dirs {
		if d == nil {
			dirs[i] = &zeroBlock
			continue
		}
		dirs[i] = &blocks[j]
		j++
	}
	slice := make([][]*block, s)
	for b := range slice {
		slice[b] = dirs[b*nb : (b+1)*nb : (b+1)*nb]
	}
	for p := range ps {
		for c := uint32(p.count); c != 0; c &= c - 1 {
			slice[bits.TrailingZeros32(c)][p.gid>>blockBits][p.gid>>6&7] |= 1 << (p.gid & 63)
		}
	}
	return &countSlices{slice, w, n, used}
}

// bytes is what the encoding allocates: its header, a directory per digit
// and the blocks of their own. Every encoding of the same postings has
// the same count of each, however it was built.
func (cs *countSlices) bytes() int {
	dir := int(unsafe.Sizeof([]*block{})) + int(unsafe.Sizeof(&zeroBlock))*blocksFor(cs.words)
	return int(unsafe.Sizeof(*cs)) + len(cs.slice)*dir + int(unsafe.Sizeof(zeroBlock))*cs.used
}

// postings decodes the bitmap encoding back into a packed list.
func (cs *countSlices) postings() *byte {
	l := postingList{body: make([]byte, 0, 2*cs.graphs)}
	for i := range cs.words {
		k, j := i>>3, i&7
		var present uint64
		for _, dir := range cs.slice {
			present |= dir[k][j]
		}
		for ; present != 0; present &= present - 1 {
			bit := bits.TrailingZeros64(present)
			var c int32
			for b, dir := range cs.slice {
				c |= int32(dir[k][j]>>bit&1) << b
			}
			l.add(int32(i<<6+bit), c)
		}
	}
	return l.pack()
}

// with returns the encoding of cs's postings plus (gid, c), for a gid above
// every encoded one. A digit c has a zero in is shared with cs unless gid
// needs more blocks; a digit c has a one in gets a new directory and a
// copy of the one block gid lands in. Blocks a growth adds are zeroBlock.
func (cs *countSlices) with(gid, c int32) *countSlices {
	w := wordsFor(gid)
	nb, k := blocksFor(w), gid>>blockBits
	slice, used := make([][]*block, max(len(cs.slice), bits.Len32(uint32(c)))), cs.used
	for b := range slice {
		var old []*block
		if b < len(cs.slice) {
			old = cs.slice[b]
		}
		one := c>>b&1 != 0
		if !one && len(old) == nb {
			slice[b] = old
			continue
		}
		dir := make([]*block, nb)
		copy(dir, old)
		for i := len(old); i < nb; i++ {
			dir[i] = &zeroBlock
		}
		if one {
			if dir[k] == &zeroBlock {
				used++
			}
			blk := new(block)
			*blk = *dir[k]
			blk[gid>>6&7] |= 1 << (gid & 63)
			dir[k] = blk
		}
		slice[b] = dir
	}
	return &countSlices{slice, w, cs.graphs + 1, used}
}

// andAtLeast intersects acc with the graphs whose count is ≥ c (c ≥ 1) and
// reports whether any bit of acc survives.
func (cs *countSlices) andAtLeast(acc []uint64, c int32) bool {
	if c>>len(cs.slice) != 0 {
		return false // c has more digits than any stored count
	}
	var alive uint64
	var digits [32]*block // block k of each digit
	for i := 0; i < cs.words; i += 8 {
		for b, dir := range cs.slice {
			digits[b&31] = dir[i>>3]
		}
		alive |= andAtLeastBlock(acc[i:min(i+8, cs.words)], digits[:len(cs.slice)], c)
	}
	clear(acc[cs.words:])
	return alive != 0
}

// andAtLeastBlock is andAtLeast on the ≤ 8 words of one block, blks its
// digits, returning the surviving bits. Per word it compares all 64 counts
// with c at once, most significant digit first: gt collects the graphs
// already decided greater, eq those still equal on every digit seen. (A
// function of its own, so the word loop keeps gt and eq in registers.)
func andAtLeastBlock(words []uint64, blks []*block, c int32) (alive uint64) {
	for j, a := range words {
		if a == 0 {
			continue
		}
		gt, eq := uint64(0), ^uint64(0)
		for b := len(blks) - 1; b >= 0; b-- {
			if digit := blks[b][j&7]; c>>b&1 != 0 {
				eq &= digit
			} else {
				gt |= eq & digit
				eq &^= digit
			}
		}
		a &= gt | eq
		words[j] = a
		alive |= a
	}
	return alive
}

// andPostings is andAtLeast for the list encoding: the packed list at p
// ascends by gid, so one pass decoding it in place rewrites acc word by
// word, clearing the words no posting reaches.
func andPostings(acc []uint64, p *byte, c int32) bool {
	var alive, keep uint64
	next, wi := 0, 0 // first word of acc not yet rewritten; the word keep gathers
	body, gid := listOf(p).body, -1
	for i := 0; i < len(body); {
		var gap, count uint64
		if i+1 < len(body) && (body[i]|body[i+1])&0x80 == 0 { // nextPosting's fast path: the call does not inline
			gap, count, i = uint64(body[i]), uint64(body[i+1]), i+2
		} else {
			gap, count, i = nextPosting(body, i)
		}
		gid += int(gap)
		if w := gid >> 6; w != wi {
			clear(acc[next:wi])
			acc[wi] &= keep
			alive |= acc[wi]
			next, wi, keep = wi+1, w, 0
		}
		if count >= uint64(c) {
			keep |= 1 << (gid & 63)
		}
	}
	clear(acc[next:wi])
	acc[wi] &= keep
	alive |= acc[wi]
	clear(acc[wi+1:])
	return alive != 0
}

// featureBit maps a trie node id to its bit of the per-graph bloom word.
func featureBit(id int32) uint64 { return 1 << (uint32(id) * 0x9E3779B1 >> 26) }

// packRow appends to dst the packed forward row of the (node, count)
// pairs in keys, each node<<32 | count, sorted by descending node: as
// uvarints, the first node's id, then the gap down to each next id, each
// followed by its count.
func packRow(dst []byte, keys []uint64) []byte {
	for i, k := range keys {
		v := k >> 32
		if i > 0 {
			v = keys[i-1]>>32 - v
		}
		dst = binary.AppendUvarint(dst, v)
		dst = binary.AppendUvarint(dst, k&(1<<32-1))
	}
	return dst
}

// uvarint decodes the uvarint at b[i:], returning it and the index past
// it.
func uvarint(b []byte, i int) (uint64, int) {
	v, n := binary.Uvarint(b[i:])
	return v, i + n
}

// dominated reports whether counts covers every (node, count) of the
// packed row, decoding it in place: the first node's id, then per pair
// its count and the gap down to the next node. A count and gap of one
// byte each, nearly every pair, take one test of both bytes.
func dominated(row []byte, counts []int32) bool {
	if len(row) == 0 {
		return true
	}
	node, i := uvarint(row, 0)
	for {
		if i+1 < len(row) && (row[i]|row[i+1])&0x80 == 0 {
			if uint64(counts[node]) < uint64(row[i]) {
				return false
			}
			node -= uint64(row[i+1])
			i += 2
			continue
		}
		c, j := uvarint(row, i)
		if uint64(counts[node]) < c {
			return false
		}
		if j == len(row) {
			return true
		}
		gap, k := uvarint(row, j)
		node -= gap
		i = k
	}
}

// pathWalk enumerates the directed simple paths of a graph with ≤ maxLen
// edges (following out-edges, which covers both directions for undirected
// graphs) down a trie, counting occurrences per trie node in a dense
// array. step picks the trie discipline: create and copy nodes (GGSX.step,
// for a build and for WithGraph), or only look them up (queries). Walks
// are pooled: between uses counts is all zero, inPath all false and
// touched empty.
type pathWalk struct {
	g       *graph.Graph
	maxLen  int
	step    func(nd *trieNode, k trieKey) *trieNode // nil: the trie has no such path
	missing bool                                    // step returned nil at least once
	counts  []int32                                 // by node id
	touched []*trieNode                             // nodes with counts[id] > 0, in first-visit order
	inPath  []bool
	words   []uint64 // candidate words of the query in flight
	seen    []uint64 // scratch of row: a bit per touched node id, zero between uses
	keys    []uint64 // scratch of row: node<<32 | count per touched node
	packed  []byte   // scratch of row: the packed row before its copy; then of addPosting
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
		w.touched = append(w.touched, child)
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

// row returns the walked graph's packed forward row and bloom word, over
// a trie of the given node count. Node ids are dense, so the touched ones,
// set in a bitmap and read from its top word down, come out in descending
// order without a comparison sort: ⌈nodes/64⌉ words (83 on the harness's
// trie) where sorting a row took ~4 µs of mispredicted compares.
// Everything but the row itself is the walk's pooled scratch, so the row
// is the one allocation, of its exact size. NewGGSX and WithGraph both
// write their rows here, so a built and an inserted row are one format.
func (w *pathWalk) row(nodes int) ([]byte, uint64) {
	var bloom uint64
	n := (nodes + 63) >> 6
	if len(w.seen) < n {
		w.seen = make([]uint64, n)
	}
	seen := w.seen[:n]
	for _, nd := range w.touched {
		seen[nd.id>>6] |= 1 << (nd.id & 63)
		bloom |= featureBit(nd.id)
	}
	w.keys = w.keys[:0]
	for i := n - 1; i >= 0; i-- {
		for word := seen[i]; word != 0; {
			b := 63 - bits.LeadingZeros64(word)
			word &^= 1 << b
			id := i<<6 | b
			w.keys = append(w.keys, uint64(id)<<32|uint64(w.counts[id]))
		}
		seen[i] = 0
	}
	w.packed = packRow(w.packed[:0], w.keys)
	return slices.Clone(w.packed), bloom
}

// release zeroes what the walk counted and returns it to the pool.
func (w *pathWalk) release() {
	for _, nd := range w.touched {
		w.counts[nd.id] = 0
	}
	clear(w.touched) // the pool must not keep an index's nodes alive
	w.touched, w.missing, w.g, w.step = w.touched[:0], false, nil, nil
	walkPool.Put(w)
}

// lookupChild is the query-side step: unseen paths are reported, not created.
func lookupChild(nd *trieNode, k trieKey) *trieNode {
	if i, ok := nd.child(k); ok {
		return nd.children[i].nd
	}
	return nil
}

// NewGGSX builds the index over the dataset, indexing label paths with up
// to maxLen edges (maxLen+1 vertices). maxLen is the "feature size" knob
// of experiment EXP-II; GraphGrepSX's customary default is 4.
func NewGGSX(dataset []*graph.Graph, maxLen int) *GGSX {
	if maxLen < 0 {
		maxLen = 0
	}
	x := &GGSX{
		maxLen: maxLen,
		n:      len(dataset),
		root:   &trieNode{id: -1, stamp: 1},
	}
	forward, blooms := make([][]byte, len(dataset)), make([]uint64, len(dataset))
	var lists []postingList // by node id
	for gid, g := range dataset {
		if g == nil { // tombstoned id: indexed as empty
			continue
		}
		w := newWalk(g, maxLen, x.nodes, x.root, x.step)
		for len(lists) < x.nodes {
			lists = append(lists, postingList{})
		}
		for _, nd := range w.touched { // gids ascend, as every list must
			lists[nd.id].add(int32(gid), w.counts[nd.id])
		}
		forward[gid], blooms[gid] = w.row(x.nodes)
		w.release()
	}
	x.bytes = childBytes * len(x.root.children)
	x.root.each(func(nd *trieNode) {
		if l := &lists[nd.id]; bitmapSmaller(l.digits, wordsFor(l.last), l.n) {
			nd.slices = encodeSlices(l.all())
		} else {
			nd.list = l.pack()
		}
		x.bytes += nodeBytes + childBytes*len(nd.children) + nd.payloadBytes()
	})
	x.bytes += perGraphBytes * len(dataset)
	for _, row := range forward {
		x.bytes += cap(row)
	}
	x.forward, x.blooms = chunkedOf(forward), chunkedOf(blooms)
	return x
}

// each calls fn on every node below nd.
func (nd *trieNode) each(fn func(*trieNode)) {
	for _, c := range nd.children {
		fn(c.nd)
		c.nd.each(fn)
	}
}

// clone returns a copy of the trie below nd with every node stamped 0,
// each with a children array of its own. Postings and encodings are
// shared: inserts replace them, never write them.
func (nd *trieNode) clone() *trieNode {
	c := &trieNode{id: nd.id, children: slices.Clone(nd.children), list: nd.list, slices: nd.slices}
	for i, k := range c.children {
		c.children[i].nd = k.nd.clone()
	}
	return c
}

// step is the writing trie step of a build and of WithGraph: it descends
// from nd, a node of x's own (stamped x.gen), to x's own child along k. A
// child stamped by an older index is copied, sharing its postings and
// children array until they are written; a missing one is created and
// inserted in key order. Unless nd already owns its children array (the
// low bit of its stamp), the array is copied before its first write: a
// shared array is never written, not even in its spare capacity.
func (x *GGSX) step(nd *trieNode, k trieKey) *trieNode {
	i, ok := nd.child(k)
	var c *trieNode
	if ok {
		if c = nd.children[i].nd; c.stamp&^1 == x.gen {
			return c
		}
		c = &trieNode{id: c.id, stamp: x.gen, children: c.children, list: c.list, slices: c.slices}
		if nd.stamp&1 == 0 {
			nd.children = slices.Clone(nd.children)
		}
		nd.children[i].nd = c
	} else {
		c = &trieNode{id: int32(x.nodes), stamp: x.gen | 1}
		x.nodes++
		x.bytes += nodeBytes + childBytes // node struct + its entry in the parent's array
		if nd.stamp&1 == 0 {
			nd.children = slices.Clip(nd.children) // so Insert copies into a new array
		}
		nd.children = slices.Insert(nd.children, i, kid{k, c})
	}
	nd.stamp |= 1
	return c
}

// WithGraph implements Filter: an incremental, copy-on-write
// trie insert. It enumerates g's own label paths (the walk NewGGSX does
// for one dataset graph), copies the trie nodes they touch and adds the
// new posting to each, and writes g's forward row and bloom into one
// chunk each; every untouched node, encoding, children array and chunk is
// shared with the receiver (the GGSX comment has the rules). No other
// dataset graph is revisited, where the factory rebuild re-enumerates the
// paths of the whole dataset.
func (x *GGSX) WithGraph(gid int, g *graph.Graph) Filter {
	if gid < x.n {
		panic(fmt.Sprintf("ftv: GGSX.WithGraph gid %d is inside the indexed id space [0,%d) — additions only append", gid, x.n))
	}
	x2 := &GGSX{
		maxLen: x.maxLen,
		n:      gid + 1,
		nodes:  x.nodes,
		gen:    x.gen + 2,
		// Positions [x.n, gid) are implicit tombstones: indexed as empty,
		// but still charged the per-graph overhead a build counts.
		bytes: x.bytes + perGraphBytes*(gid+1-x.n),
	}
	root := x.root
	if x2.gen == 0 { // 2^31 inserts wrapped the stamp: restart from a copy no old stamp reaches
		root, x2.gen = root.clone(), 2
	}
	// Every vertex starts a path, so x2 always has a root of its own; it
	// shares the receiver's children array until the first step copies it.
	x2.root = &trieNode{id: -1, stamp: x2.gen, children: root.children}
	w := newWalk(g, x.maxLen, x.nodes, x2.root, x2.step)
	row, bloom := w.row(x2.nodes)
	for _, nd := range w.touched { // every counted node was stepped into, hence x2's own
		x2.bytes -= nd.payloadBytes()
		w.packed = nd.addPosting(int32(gid), w.counts[nd.id], w.packed) // row is done with it
		x2.bytes += nd.payloadBytes()
	}
	w.release()
	x2.forward, x2.blooms = x.forward.With(gid, row), x.blooms.With(gid, bloom)
	x2.bytes += cap(row)
	return x2
}

// addPosting records (gid, c) on a node of the inserting index's own, gid
// above every posted one, and leaves the node in the encoding the size
// rule picks for its new contents. Either encoding carries its digit and
// word counts, so the rule costs O(1); a node is re-encoded only when the
// rule flips. A list is copied into scratch, grown by the posting and
// packed anew, one allocation; scratch, grown as needed, is returned for
// the next call.
func (nd *trieNode) addPosting(gid, c int32, scratch []byte) []byte {
	if nd.slices != nil {
		nd.slices = nd.slices.with(gid, c)
		if cs := nd.slices; !bitmapSmaller(len(cs.slice), cs.words, cs.graphs) {
			nd.list, nd.slices = cs.postings(), nil
		}
		return scratch
	}
	l := listOf(nd.list)
	l.body = append(scratch[:0], l.body...)
	l.add(gid, c)
	if bitmapSmaller(l.digits, wordsFor(gid), l.n) { // gid is the largest posted
		nd.slices, nd.list = encodeSlices(l.all()), nil
	} else {
		nd.list = l.pack()
	}
	return l.body
}

// IndexBytes implements Filter.
func (x *GGSX) IndexBytes() int { return x.bytes }

// The byte model of IndexBytes charges what is allocated: per trie node
// its struct, per child its entry in the parent's children array, per
// graph its forward-row header and bloom word, a packed forward row its
// capacity, a packed list its length and a bitmap countSlices.bytes.
const (
	nodeBytes     = int(unsafe.Sizeof(trieNode{}))
	childBytes    = int(unsafe.Sizeof(kid{}))
	perGraphBytes = 24 + 8
)

// payloadBytes is the size of the node's postings in their encoding.
func (nd *trieNode) payloadBytes() int {
	if nd.slices != nil {
		return nd.slices.bytes()
	}
	return len(packedBytes(nd.list))
}

// Candidates implements Filter. Subgraph: G is a candidate iff
// count_G(f) ≥ count_q(f) for every query feature f — one AND per feature
// into the candidate words, in any order. Supergraph: iff count_G(f) ≤
// count_q(f) for every feature f of G — the bloom word rules out a graph
// owning a feature the query lacks, the forward row decides the rest.
func (x *GGSX) Candidates(q *graph.Graph, qt QueryType) *bitset.Set {
	w := newWalk(q, x.maxLen, x.nodes, x.root, lookupChild)
	defer w.release()
	return x.candidates(w, qt)
}

// candidates is Candidates on the query's walk.
func (x *GGSX) candidates(w *pathWalk, qt QueryType) *bitset.Set {
	if nw := (x.n + 63) / 64; cap(w.words) < nw {
		w.words = make([]uint64, nw)
	} else {
		w.words = w.words[:nw]
	}
	if qt == Supergraph { // paths the trie lacks are fine here
		var qbloom uint64
		for _, nd := range w.touched {
			qbloom |= featureBit(nd.id)
		}
		// Two passes: the bloom screen over every graph, chunk by chunk and
		// free of calls, so its loop keeps its registers; then the rows of
		// the few graphs it passed.
		clear(w.words)
		for k, blooms := range x.blooms.dir {
			base := k << chunkBits
			for j, b := range blooms[:min(chunkLen, x.n-base)] {
				if b&^qbloom == 0 {
					gid := base + j
					w.words[gid>>6] |= 1 << (gid & 63)
				}
			}
		}
		for i, word := range w.words {
			for ; word != 0; word &= word - 1 {
				gid := i<<6 | bits.TrailingZeros64(word)
				if !dominated(x.forward.At(gid), w.counts) {
					w.words[i] &^= 1 << (gid & 63)
				}
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
	for _, nd := range w.touched {
		var alive bool
		if nd.slices != nil {
			alive = nd.slices.andAtLeast(w.words, w.counts[nd.id])
		} else {
			alive = andPostings(w.words, nd.list, w.counts[nd.id])
		}
		if !alive {
			return bitset.New(x.n)
		}
	}
	return bitset.FromWords(x.n, w.words)
}
