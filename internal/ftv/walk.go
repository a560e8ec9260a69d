package ftv

import (
	"math"
	"sync"

	"graphcache/internal/bitset"
	"graphcache/internal/graph"
)

// Row is a graph's features as one walk down a GGSX trie counted them:
// its (node, count) pairs in packRow's format, their bloom (featureBit)
// and its watermark, the trie's node count at the walk, below which the
// row holds every node the graph has. Node ids are stable and only grow
// along a Method's insert lineage (GGSX.step; RemoveGraph keeps the
// filter), so "a ⊑ b" compares a's nodes below b's watermark. An insert
// walks every path of its graph: a forward row's watermark is unbounded.
// Without a trie every row is the zero Row, which every screen passes.
type Row struct {
	packed []byte
	bloom  uint64
	top    int32 // the largest node id, the row's first uvarint; 0 when empty
	mark   int32 // the watermark
}

// Bytes is the size of the packed row.
func (r Row) Bytes() int { return len(r.packed) }

// Decoded is a row with its (node, count) pairs decoded, largest node
// first: the side of a screen many packed rows are checked against, each
// in one descending pass that stops at the first node the other lacks.
type Decoded struct {
	Row
	keys   []uint64  // node<<32 | count per pair, by descending node
	lazy   bool      // keys are not decoded yet
	pooled *[]uint64 // the decoding's scratch; nil for a walk's
}

var decodePool = sync.Pool{New: func() any { return new([]uint64) }}

// Decode returns r to be decoded, into pooled scratch, by its first row
// pass; Release returns the scratch.
func (r Row) Decode() Decoded { return Decoded{Row: r, lazy: true} }

// load decodes a lazy Decoded.
func (d *Decoded) load() {
	if !d.lazy {
		return
	}
	p := decodePool.Get().(*[]uint64)
	keys, row, node := (*p)[:0], d.packed, uint64(0)
	for i := 0; i < len(row); {
		v, c, j := nextPosting(row, i) // a pair is a posting's two uvarints
		if i == 0 {
			node = v
		} else {
			node -= v
		}
		keys, i = append(keys, node<<32|c), j
	}
	*p = keys
	d.keys, d.lazy, d.pooled = keys, false, p
}

// Release returns the decoding's scratch to the pool. It does nothing to
// a walk's Decoded, which the Walk releases.
func (d *Decoded) Release() {
	if d.pooled != nil {
		decodePool.Put(d.pooled)
		*d = Decoded{Row: d.Row}
	}
}

// Holds reports whether r's graph may embed in d's, a necessary
// condition: each node of r below d's watermark must have at least r's
// count in d. It is the row pass of the containment screen (ScreenKey).
func (d *Decoded) Holds(r Row) bool {
	d.load()
	row, keys, node := r.packed, d.keys, uint64(0)
	for i := 0; i < len(row); {
		v, c, j := nextPosting(row, i) // a pair is a posting's two uvarints
		if i == 0 {
			node = v
		} else {
			node -= v
		}
		if i = j; node >= uint64(d.mark) {
			continue // a node d was walked without
		}
		for len(keys) > 0 && keys[0]>>32 > node {
			keys = keys[1:]
		}
		if len(keys) == 0 || keys[0]>>32 != node || keys[0]&(1<<32-1) < c {
			return false
		}
		keys = keys[1:]
	}
	return true
}

// In reports whether d's graph may embed in r's, a necessary condition:
// each node of d below r's watermark must have at least d's count in r.
// It is the row pass of the containment screen (ScreenKey).
func (d *Decoded) In(r Row) bool {
	d.load()
	keys := d.keys
	for len(keys) > 0 && keys[0]>>32 >= uint64(r.mark) { // the nodes r was walked without
		keys = keys[1:]
	}
	row, node := r.packed, uint64(0)
	for i := 0; len(keys) > 0; {
		if i == len(row) {
			return false
		}
		v, c, j := nextPosting(row, i) // a pair is a posting's two uvarints
		if i == 0 {
			node = v
		} else {
			node -= v
		}
		i = j
		if want := keys[0] >> 32; node > want {
			continue
		} else if node < want || c < keys[0]&(1<<32-1) {
			return false
		}
		keys = keys[1:]
	}
	return true
}

// Walk is one graph's walk down a view's GGSX trie. The filter stage
// reads it (Candidates), and a caller may keep it open to screen rows
// against the graph (Decoded) without walking it again; without a trie it
// is empty. A single-goroutine object: Release it when done.
type Walk struct {
	view  DatasetView
	q     *graph.Graph
	x     *GGSX // nil: the view's filter has no trie
	w     *pathWalk
	d     Decoded
	ready bool // d is set
}

// Walk walks q down the view's trie.
func (v DatasetView) Walk(q *graph.Graph) Walk {
	wk := Walk{view: v, q: q}
	if x, ok := v.s.filter.(*GGSX); ok {
		wk.x, wk.w = x, newWalk(q, x.maxLen, x.nodes, x.root, lookupChild)
	}
	return wk
}

// Candidates is DatasetView.Candidates on the walk.
func (wk *Walk) Candidates(qt QueryType) *bitset.Set {
	var c *bitset.Set
	if wk.x != nil {
		c = wk.x.candidates(wk.w, qt)
	} else {
		c = wk.view.s.filter.Candidates(wk.q, qt)
	}
	c.And(wk.view.s.live)
	return c
}

// Decoded returns the walked graph's row, decoded. The packed row, the
// walk's one allocation, outlives Release; the decoded pairs do not.
func (wk *Walk) Decoded() *Decoded {
	if wk.w != nil && !wk.ready {
		packed, bloom := wk.w.row(wk.x.nodes)
		top, _ := uvarint(packed, 0)
		wk.d, wk.ready = Decoded{Row: Row{packed, bloom, int32(top), int32(wk.x.nodes)}, keys: wk.w.keys}, true
	}
	return &wk.d
}

// Release returns the walk's scratch to its pool.
func (wk *Walk) Release() {
	if wk.w != nil {
		wk.w.release()
		wk.w, wk.d = nil, Decoded{Row: wk.d.Row}
	}
}

// Row returns dataset graph gid's forward row, at an unbounded watermark;
// the zero Row over a filter without a trie.
func (v DatasetView) Row(gid int) Row {
	x, ok := v.s.filter.(*GGSX)
	if !ok {
		return Row{}
	}
	packed := x.forward.At(gid)
	top, _ := uvarint(packed, 0) // 0 for the empty row
	return Row{packed, x.blooms.At(gid), int32(top), math.MaxInt32}
}
