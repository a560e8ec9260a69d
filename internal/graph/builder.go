package graph

import (
	"fmt"
	"slices"
)

// Builder assembles a Graph. A zero Builder is not usable; construct with
// NewBuilder. Builders are single-goroutine objects.
type Builder struct {
	id       int
	labels   []Label
	edges    map[[2]int32]struct{}
	elabels  map[edgeKey]Label
	directed bool
	errs     []error
}

// NewBuilder returns a builder for a graph with n vertices, all initially
// labelled 0, with no edges and id -1.
func NewBuilder(n int) *Builder {
	return &Builder{
		id:     -1,
		labels: make([]Label, n),
		edges:  make(map[[2]int32]struct{}),
	}
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
	b.edges[[2]int32{int32(u), int32(v)}] = struct{}{}
	return b
}

// Build finalizes the graph. It returns the first recorded error, if any.
func (b *Builder) Build() (*Graph, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	n := len(b.labels)
	// Adjacency lists are carved, exactly sized, out of one backing array
	// per direction: deg counts first, then each list is filled and sorted.
	deg := make([]int32, 2*n)
	for e := range b.edges {
		deg[e[0]]++
		deg[n+int(e[1])]++
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
	for e := range b.edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		if b.directed {
			radj[e[1]] = append(radj[e[1]], e[0])
		} else {
			adj[e[1]] = append(adj[e[1]], e[0])
		}
	}
	for v := 0; v < n; v++ {
		slices.Sort(adj[v])
		if b.directed {
			slices.Sort(radj[v])
		}
	}
	labels := make([]Label, n)
	copy(labels, b.labels)
	var elabels map[edgeKey]Label
	if len(b.elabels) > 0 {
		elabels = make(map[edgeKey]Label, len(b.elabels))
		for k, l := range b.elabels {
			if _, ok := b.edges[[2]int32{k.u, k.v}]; ok {
				elabels[k] = l
			}
		}
	}
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
