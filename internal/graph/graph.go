// Package graph implements the dataset-graph substrate of GraphCache:
// undirected, vertex-labelled simple graphs (no self-loops, no multi-edges),
// the representation over which subgraph/supergraph queries run.
//
// Graphs are immutable after construction (see Builder); all query-side
// components (iso, ftv, core) rely on that immutability to share graphs
// freely across goroutines without locks.
//
// # Layout
//
// A graph is a 64-byte header and one block (see CSR and newBlock): the
// labels, a neighbour-label signature per vertex, 32-bit CSR row offsets
// and the 16-bit neighbour lists end to end, in one allocation, because a
// sub-iso test against a dataset graph costs about what fetching the
// graph costs. A 16-bit neighbour caps a graph at MaxVertices (65 536)
// vertices. The header keeps the block pointer and the vertex and edge
// counts, from which every array's place is worked out on each access:
// it stores no slice. The accessors (OutNeighbors, InNeighbors, Degree,
// HasEdge, ...) hide the layout; the matcher alone reads the
// raw arrays, through Graph.CSR.
package graph

import (
	"fmt"
	"sort"
	"unsafe"
)

// Label is a vertex label. The demo deployment uses atom symbols of the
// AIDS antiviral screen dataset; any small alphabet works.
type Label uint16

// Graph is a vertex-labelled simple graph — undirected by default, with
// optional directedness and edge labels (see directed.go). Vertices are
// the integers [0, N()), at most MaxVertices of them. Adjacency lists are
// sorted ascending, enabling binary-search edge tests; they live in the
// graph's block, of which the header keeps one pointer and the counts
// that locate every array in it (see CSR).
type Graph struct {
	id       int
	block    *uint64
	elabels  map[edgeKey]Label
	n, m     uint32
	directed bool

	// memoSet holds lazily-computed structural summaries (see memo.go).
	// It contains atomics, so Graph values must not be copied wholesale;
	// WithID shares the pointers explicitly instead.
	memoSet
}

// ID returns the graph's identifier: its dataset position for dataset
// graphs, or an arbitrary caller-chosen id (often -1) for query graphs.
func (g *Graph) ID() int { return g.id }

// N returns the number of vertices.
func (g *Graph) N() int { return int(g.n) }

// M returns the number of (undirected) edges.
func (g *Graph) M() int { return int(g.m) }

// Label returns the label of vertex v.
func (g *Graph) Label(v int) Label { return g.Labels()[v] }

// Labels returns the label slice. Callers must not modify it.
func (g *Graph) Labels() []Label {
	return unsafe.Slice((*Label)(unsafe.Pointer(g.block)), g.n)
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return len(g.row(v)) }

// HasEdge reports whether {u, v} is an edge — for directed graphs, whether
// the arc u→v exists.
func (g *Graph) HasEdge(u, v int) bool {
	a := g.row(u)
	if !g.directed && g.Degree(v) < len(a) {
		// Undirected: search the shorter list.
		a, v = g.row(v), u
	}
	return uint(v) < uint(g.n) && Contains(a, uint16(v)) // no id past N wraps onto a vertex
}

// Contains reports whether the ascending list a holds v: a binary search
// down to 8 entries, then a linear scan, which is all the short lists of
// sparse graphs ever get. Closure-free: it is the matcher's edge probe.
func Contains(a []uint16, v uint16) bool {
	for len(a) > 8 {
		h := len(a) / 2
		if a[h] <= v {
			a = a[h:]
		} else {
			a = a[:h]
		}
	}
	for _, w := range a {
		if w >= v {
			return w == v
		}
	}
	return false
}

// Edges returns all edges in lexicographic order, freshly allocated:
// (u, v) pairs with u < v for undirected graphs, all arcs u→v for
// directed ones.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u := 0; u < g.N(); u++ {
		for _, v := range g.row(u) {
			if g.directed || u < int(v) {
				out = append(out, [2]int{u, int(v)})
			}
		}
	}
	return out
}

// Bytes estimates the heap footprint of the graph in bytes, used by the
// cache's memory accounting: the header's 64 B size class, the block (8 B
// of signature and 4 B of offset per row, 2 B per neighbour entry, 2 B per
// label) and the edge-label map.
func (g *Graph) Bytes() int {
	return 64 + g.blockBytes() + 16*len(g.elabels)
}

// String returns a short human-readable summary such as "g17(V=12,E=13)".
func (g *Graph) String() string {
	return fmt.Sprintf("g%d(V=%d,E=%d)", g.id, g.N(), g.m)
}

// WithID returns a shallow copy of g carrying the given id. The underlying
// label and adjacency storage is shared; since graphs are immutable this
// is safe.
func (g *Graph) WithID(id int) *Graph {
	c := &Graph{
		id:       id,
		block:    g.block,
		elabels:  g.elabels,
		n:        g.n,
		m:        g.m,
		directed: g.directed,
	}
	c.shareFrom(&g.memoSet)
	return c
}

// IsConnected reports whether the graph is connected — weakly connected
// for directed graphs. The empty graph is considered connected.
func (g *Graph) IsConnected() bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	stack := []uint16{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.row(int(v)) {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
		for _, w := range g.InNeighbors(int(v)) {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

// ConnectedComponents returns the vertex sets of (weakly) connected
// components, each sorted ascending, ordered by smallest member.
func (g *Graph) ConnectedComponents() [][]int {
	n := g.N()
	seen := make([]bool, n)
	var comps [][]int
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []uint16{uint16(s)}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, int(v))
			for _, w := range g.row(int(v)) {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
			for _, w := range g.InNeighbors(int(v)) {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// InducedSubgraph returns the subgraph induced by verts (which must be
// distinct, valid vertex ids). Vertex i of the result corresponds to
// verts[i]; the result has id -1.
func (g *Graph) InducedSubgraph(verts []int) (*Graph, error) {
	remap := make(map[int]int, len(verts))
	for i, v := range verts {
		if v < 0 || v >= g.N() {
			return nil, fmt.Errorf("graph: induced subgraph vertex %d out of range [0,%d)", v, g.N())
		}
		if _, dup := remap[v]; dup {
			return nil, fmt.Errorf("graph: induced subgraph vertex %d repeated", v)
		}
		remap[v] = i
	}
	b := NewBuilder(len(verts))
	if g.directed {
		b.Directed()
	}
	for i, v := range verts {
		b.SetLabel(i, g.Label(v))
	}
	for i, v := range verts {
		for _, w := range g.row(v) {
			j, ok := remap[int(w)]
			if !ok || (!g.directed && i >= j) {
				continue
			}
			if g.elabels != nil {
				b.AddLabeledEdge(i, j, g.EdgeLabel(v, int(w)))
			} else {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Build()
}
