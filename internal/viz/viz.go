// Package viz renders graphs for the demonstrators — the substitute for
// the demo paper's "automatic visualization for graphs" (the HTML/JS
// front-end draws molecules; this package emits Graphviz DOT for external
// rendering and a deterministic ASCII adjacency view for terminals).
package viz

import (
	"fmt"
	"strings"

	"graphcache/internal/graph"
)

// Options controls rendering.
type Options struct {
	// Name is the DOT graph name (default "g").
	Name string
	// VertexNames maps labels to display names (e.g. atom symbols);
	// missing labels render numerically.
	VertexNames map[graph.Label]string
	// EdgeNames maps edge labels to display names.
	EdgeNames map[graph.Label]string
}

// AtomNames is a convenience VertexNames table for the AIDS-like molecule
// alphabet of internal/gen.
var AtomNames = map[graph.Label]string{
	0: "C", 1: "O", 2: "N", 3: "S", 4: "Cl", 5: "F",
	6: "P", 7: "Br", 8: "I", 9: "Si", 10: "B", 11: "Se",
}

func (o Options) vertexName(l graph.Label) string {
	if n, ok := o.VertexNames[l]; ok {
		return n
	}
	return fmt.Sprintf("%d", l)
}

func (o Options) edgeName(l graph.Label) string {
	if n, ok := o.EdgeNames[l]; ok {
		return n
	}
	return fmt.Sprintf("%d", l)
}

// ToDOT renders the graph in Graphviz DOT format, honoring directedness
// and labels. Output is deterministic.
func ToDOT(g *graph.Graph, opts Options) string {
	name := opts.Name
	if name == "" {
		name = "g"
	}
	var b strings.Builder
	kind, arrow := "graph", "--"
	if g.Directed() {
		kind, arrow = "digraph", "->"
	}
	fmt.Fprintf(&b, "%s %s {\n", kind, name)
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(&b, "  n%d [label=%q];\n", v, opts.vertexName(g.Label(v)))
	}
	for _, e := range g.Edges() {
		if g.HasEdgeLabels() {
			fmt.Fprintf(&b, "  n%d %s n%d [label=%q];\n", e[0], arrow, e[1], opts.edgeName(g.EdgeLabel(e[0], e[1])))
		} else {
			fmt.Fprintf(&b, "  n%d %s n%d;\n", e[0], arrow, e[1])
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// ASCII renders a deterministic adjacency-list view, one vertex per line:
//
//	0[C] — 1[O], 2[C]
//
// Directed graphs use → and list out-neighbors only.
func ASCII(g *graph.Graph, opts Options) string {
	var b strings.Builder
	dash := "—"
	if g.Directed() {
		dash = "→"
	}
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(&b, "%d[%s] %s ", v, opts.vertexName(g.Label(v)), dash)
		ns := g.OutNeighbors(v) // ascending
		parts := make([]string, 0, len(ns))
		for _, w := range ns {
			p := fmt.Sprintf("%d[%s]", w, opts.vertexName(g.Label(int(w))))
			if g.HasEdgeLabels() {
				p += ":" + opts.edgeName(g.EdgeLabel(v, int(w)))
			}
			parts = append(parts, p)
		}
		if len(parts) == 0 {
			b.WriteString("∅")
		} else {
			b.WriteString(strings.Join(parts, ", "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Strip draws a proportional bar comparing part against whole — the
// dataset-wide set visualizations of the Query Journey panels.
func Strip(part, whole, width int) string {
	if whole <= 0 {
		whole = 1
	}
	if part < 0 {
		part = 0
	}
	if part > whole {
		part = whole
	}
	fill := part * width / whole
	return fmt.Sprintf("[%s%s] %d/%d",
		strings.Repeat("█", fill), strings.Repeat("·", width-fill), part, whole)
}
