package graph

import "fmt"

// Directedness and edge labels. The paper's results "straightforwardly
// generalize to directed graphs and/or graphs with edge labels"; this file
// carries that generalization through the Graph type. Undirected,
// vertex-labelled graphs remain the default and pay nothing for it.
//
// Representation: a directed graph's block holds a second set of rows for
// the in-neighbors (see CSR; an undirected graph's in-rows are its
// out-rows). Edge labels live in a side map keyed by the canonical
// endpoint pair — (u, v) as stored for directed edges, (min, max) for
// undirected ones; a nil map means "no edge labels" and EdgeLabel reports
// 0 for every edge.

type edgeKey struct{ u, v int32 }

func (g *Graph) edgeKeyOf(u, v int) edgeKey {
	if !g.directed && u > v {
		u, v = v, u
	}
	return edgeKey{int32(u), int32(v)}
}

// Directed reports whether the graph is directed. Undirected graphs treat
// every edge as bidirectional in HasEdge/Neighbors.
func (g *Graph) Directed() bool { return g.directed }

// HasEdgeLabels reports whether any edge carries a label.
func (g *Graph) HasEdgeLabels() bool { return len(g.elabels) > 0 }

// EdgeLabel returns the label of edge (u, v); absent labels and absent
// edges report 0. Matching treats label 0 as "unlabelled".
func (g *Graph) EdgeLabel(u, v int) Label {
	if g.elabels == nil {
		return 0
	}
	return g.elabels[g.edgeKeyOf(u, v)]
}

// OutNeighbors returns the vertices reachable from v by one edge: the
// out-neighbors of a directed graph, all neighbors of an undirected one.
// Callers must not modify the slice.
func (g *Graph) OutNeighbors(v int) []int32 { return g.c.Row(v) }

// InNeighbors returns the vertices with an edge into v. For undirected
// graphs this equals OutNeighbors.
func (g *Graph) InNeighbors(v int) []int32 { return g.c.Row(g.c.In + v) }

// OutDegree returns len(OutNeighbors(v)).
func (g *Graph) OutDegree(v int) int { return g.Degree(v) }

// InDegree returns len(InNeighbors(v)).
func (g *Graph) InDegree(v int) int { return g.Degree(g.c.In + v) }

// EdgeLabelCounts returns occurrences per edge label (absent for graphs
// without edge labels).
func (g *Graph) EdgeLabelCounts() map[Label]int {
	if g.elabels == nil {
		return nil
	}
	out := make(map[Label]int, 8)
	for _, l := range g.elabels {
		out[l]++
	}
	return out
}

// Directed marks the builder's graph as directed: AddEdge(u, v) then means
// the arc u→v, and (u, v)/(v, u) are distinct edges. Must be called before
// any AddEdge.
func (b *Builder) Directed() *Builder {
	if len(b.edges) > 0 {
		b.errs = append(b.errs, fmt.Errorf("graph: Directed must precede AddEdge"))
		return b
	}
	b.directed = true
	return b
}

// AddLabeledEdge records an edge carrying an edge label. For undirected
// builders the label is shared by both directions.
func (b *Builder) AddLabeledEdge(u, v int, l Label) *Builder {
	b.AddEdge(u, v)
	if len(b.errs) > 0 {
		return b
	}
	if b.elabels == nil {
		b.elabels = make(map[edgeKey]Label)
	}
	if !b.directed && u > v {
		u, v = v, u
	}
	b.elabels[edgeKey{int32(u), int32(v)}] = l
	return b
}
