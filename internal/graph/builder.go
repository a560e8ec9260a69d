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
	rows := n
	if b.directed {
		rows = 2 * n
	}
	c := newBlock(n, rows, 2*len(b.edges))
	copy(c.Labels, b.labels)
	// Rows are sized, then filled, in place. The first pass leaves each
	// row's length in Off[row+1] and the running sum turns that into the
	// row's start in Off[row]; the fill pass advances Off[row] past every
	// entry it writes, so it ends as the row's end, which is the next
	// row's start, and one shift puts the starts back. An arc u→v is an
	// entry of out-row u and of in-row In+v, an undirected edge of rows u
	// and v. The edges are in (u, v) order, so every row comes out
	// ascending: an in-row's entries arrive by ascending u, and an
	// undirected vertex x gets its smaller neighbours from the edges
	// (u, x), all of which precede the edges (x, v) that bring the larger
	// ones.
	off, in := c.Off, c.In
	for _, e := range b.edges {
		off[e>>32+1]++
		off[in+int(uint32(e))+1]++
	}
	start := int32(0)
	for r := 0; r < rows; r++ {
		start, off[r] = start+off[r+1], start
	}
	for _, e := range b.edges {
		u, v := int32(e>>32), int32(uint32(e))
		c.Nbr[off[u]] = v
		off[u]++
		c.Nbr[off[in+int(v)]] = u
		off[in+int(v)]++
	}
	copy(off[1:], off[:rows])
	off[0] = 0
	for r := range c.Sig {
		c.Sig[r] = signature(c.Row(r), c.Labels)
	}
	// Only AddLabeledEdge writes elabels, after its AddEdge succeeded, so
	// every key is an edge.
	elabels := maps.Clone(b.elabels)
	return &Graph{
		id:       b.id,
		c:        c,
		elabels:  elabels,
		directed: b.directed,
		m:        len(b.edges),
	}, nil
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
