package graph

import (
	"fmt"
	"maps"
	"slices"
)

// Builder assembles a Graph. A zero Builder is not usable; construct with
// NewBuilder. Builders are single-goroutine objects.
type Builder struct {
	id     int
	labels []Label
	// edges holds every AddEdge as u<<32|v (u < v when undirected), in
	// call order and with repeats; Build sorts and dedups it in place.
	edges    []uint64
	elabels  map[edgeKey]Label
	directed bool
	errs     []error
}

// NewBuilder returns a builder for a graph with n vertices, all initially
// labelled 0, with no edges and id -1.
func NewBuilder(n int) *Builder {
	return &Builder{id: -1, labels: make([]Label, n)}
}

// SetID sets the graph id recorded in the built graph.
func (b *Builder) SetID(id int) *Builder {
	b.id = id
	return b
}

// SetLabel assigns a label to vertex v.
func (b *Builder) SetLabel(v int, l Label) *Builder {
	if v < 0 || v >= len(b.labels) {
		b.errs = append(b.errs, fmt.Errorf("graph: SetLabel vertex %d out of range [0,%d)", v, len(b.labels)))
		return b
	}
	b.labels[v] = l
	return b
}

// SetLabels assigns labels to vertices 0..len(ls)-1.
func (b *Builder) SetLabels(ls []Label) *Builder {
	for v, l := range ls {
		b.SetLabel(v, l)
	}
	return b
}

// AddEdge records the edge {u, v} (the arc u→v for directed builders).
// Self-loops are rejected; duplicate edges are collapsed silently (the
// graph is simple).
func (b *Builder) AddEdge(u, v int) *Builder {
	if u == v {
		b.errs = append(b.errs, fmt.Errorf("graph: self-loop at vertex %d", u))
		return b
	}
	if u < 0 || u >= len(b.labels) || v < 0 || v >= len(b.labels) {
		b.errs = append(b.errs, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, len(b.labels)))
		return b
	}
	if !b.directed && u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, uint64(u)<<32|uint64(v))
	return b
}

// Build finalizes the graph. It returns the first recorded error, if any.
func (b *Builder) Build() (*Graph, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	n := len(b.labels)
	slices.Sort(b.edges)
	b.edges = slices.Compact(b.edges)
	// Adjacency lists are carved, exactly sized, out of one backing array
	// per direction: deg counts first, then each list is filled. The edges
	// are in (u, v) order, so every list comes out ascending: a vertex's
	// in-neighbours arrive by ascending u, and an undirected vertex x gets
	// its smaller neighbours from the edges (u, x), all of which precede
	// the edges (x, v) that bring the larger ones.
	deg := make([]int32, 2*n)
	for _, e := range b.edges {
		deg[e>>32]++
		deg[n+int(uint32(e))]++
	}
	var adj, radj [][]int32
	if b.directed {
		adj, radj = carveAdj(deg[:n]), carveAdj(deg[n:])
	} else {
		for v := 0; v < n; v++ {
			deg[v] += deg[n+v]
		}
		adj = carveAdj(deg[:n])
	}
	for _, e := range b.edges {
		u, v := int32(e>>32), int32(uint32(e))
		adj[u] = append(adj[u], v)
		if b.directed {
			radj[v] = append(radj[v], u)
		} else {
			adj[v] = append(adj[v], u)
		}
	}
	labels := make([]Label, n)
	copy(labels, b.labels)
	// Only AddLabeledEdge writes elabels, after its AddEdge succeeded, so
	// every key is an edge.
	elabels := maps.Clone(b.elabels)
	return &Graph{
		id:       b.id,
		labels:   labels,
		adj:      adj,
		radj:     radj,
		elabels:  elabels,
		directed: b.directed,
		m:        len(b.edges),
	}, nil
}

// carveAdj returns one empty list per vertex with capacity deg[v], all
// sharing a single backing array of exactly sum(deg) entries.
func carveAdj(deg []int32) [][]int32 {
	total := 0
	for _, d := range deg {
		total += int(d)
	}
	flat := make([]int32, total)
	lists := make([][]int32, len(deg))
	off := 0
	for v, d := range deg {
		lists[v] = flat[off : off : off+int(d)]
		off += int(d)
	}
	return lists
}

// MustBuild is Build that panics on error, for tests and generators whose
// inputs are valid by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// New constructs a graph directly from a label slice and an edge list.
func New(labels []Label, edges [][2]int) (*Graph, error) {
	b := NewBuilder(len(labels)).SetLabels(labels)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// MustNew is New that panics on error.
func MustNew(labels []Label, edges [][2]int) *Graph {
	g, err := New(labels, edges)
	if err != nil {
		panic(err)
	}
	return g
}
