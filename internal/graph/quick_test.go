package graph

import (
	"bytes"
	"testing"
	"testing/quick"
)

// Property: any graph assembled from arbitrary (clamped) fuzz input
// round-trips through the text codec preserving structure, labels,
// directedness and edge labels.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(rawLabels []uint16, rawEdges []uint32, directed, edgeLabels bool) bool {
		n := len(rawLabels)
		if n > 20 {
			n = 20
		}
		if n == 0 {
			return true
		}
		b := NewBuilder(n)
		if directed {
			b.Directed()
		}
		for v := 0; v < n; v++ {
			b.SetLabel(v, Label(rawLabels[v]%50))
		}
		for _, raw := range rawEdges {
			u := int(raw % uint32(n))
			v := int((raw / 7) % uint32(n))
			if u == v {
				continue
			}
			if edgeLabels {
				b.AddLabeledEdge(u, v, Label((raw/31)%9))
			} else {
				b.AddEdge(u, v)
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}

		var buf bytes.Buffer
		if err := WriteGraph(&buf, g); err != nil {
			return false
		}
		back, err := ReadAll(&buf)
		if err != nil || len(back) != 1 {
			return false
		}
		h := back[0]
		if h.N() != g.N() || h.M() != g.M() || h.Directed() != g.Directed() {
			return false
		}
		for v := 0; v < g.N(); v++ {
			if h.Label(v) != g.Label(v) {
				return false
			}
		}
		ge, he := g.Edges(), h.Edges()
		for i := range ge {
			if ge[i] != he[i] {
				return false
			}
			if g.EdgeLabel(ge[i][0], ge[i][1]) != h.EdgeLabel(he[i][0], he[i][1]) {
				return false
			}
		}
		// Fingerprints must agree too (total structural equality).
		return g.WLFingerprint(3) == h.WLFingerprint(3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: InducedSubgraph of the full vertex set is the graph itself
// (same fingerprint), for arbitrary generated graphs.
func TestQuickInducedIdentity(t *testing.T) {
	f := func(rawLabels []uint16, rawEdges []uint32) bool {
		n := len(rawLabels)
		if n > 12 {
			n = 12
		}
		if n == 0 {
			return true
		}
		b := NewBuilder(n)
		for v := 0; v < n; v++ {
			b.SetLabel(v, Label(rawLabels[v]%5))
		}
		for _, raw := range rawEdges {
			u := int(raw % uint32(n))
			v := int((raw / 11) % uint32(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		ind, err := g.InducedSubgraph(all)
		if err != nil {
			return false
		}
		return ind.WLFingerprint(3) == g.WLFingerprint(3) && ind.M() == g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
