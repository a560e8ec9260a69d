package graph

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	gs := []*Graph{
		MustNew([]Label{1, 2, 3}, [][2]int{{0, 1}, {1, 2}}).WithID(0),
		MustNew([]Label{7}, nil).WithID(1),
		MustNew([]Label{0, 0, 0, 0}, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}}).WithID(2),
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, gs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(gs) {
		t.Fatalf("read %d graphs, want %d", len(back), len(gs))
	}
	for i, g := range gs {
		h := back[i]
		if h.ID() != g.ID() || h.N() != g.N() || h.M() != g.M() {
			t.Fatalf("graph %d mismatch: %v vs %v", i, h, g)
		}
		for v := 0; v < g.N(); v++ {
			if h.Label(v) != g.Label(v) {
				t.Fatalf("graph %d label %d mismatch", i, v)
			}
		}
		ge, he := g.Edges(), h.Edges()
		for j := range ge {
			if ge[j] != he[j] {
				t.Fatalf("graph %d edge %d mismatch", i, j)
			}
		}
	}
}

func TestCodecIgnoresCommentsAndBlankLines(t *testing.T) {
	in := `
// a comment
t # 5

v 0 10
v 1 11
// another
e 0 1
`
	gs, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 1 || gs[0].ID() != 5 || gs[0].N() != 2 || gs[0].M() != 1 {
		t.Fatalf("parsed %v", gs)
	}
}

// TestCodecErrors has a case for every ParseError the parser can raise,
// pinned by line and message. Builder errors surface at the line that
// closes the graph.
func TestCodecErrors(t *testing.T) {
	cases := []struct {
		name, in string
		wantLine int
		wantMsg  string
	}{
		{"vertex before t", "v 0 1\n", 1, "vertex line before any 't' line"},
		{"edge before t", "e 0 1\n", 1, "edge line before any 't' line"},
		{"bad t", "t 0\n", 1, `want "t # <id> [directed]", got "t 0"`},
		{"bad id", "t # x\n", 1, `bad graph id "x"`},
		{"nonconsecutive vid", "t # 0\nv 1 0\n", 2, "vertex ids must be consecutive from 0; got 1, want 0"},
		{"bad label", "t # 0\nv 0 -2\n", 2, `bad vertex line "v 0 -2"`},
		{"label overflow", "t # 0\nv 0 70000\n", 2, `bad vertex line "v 0 70000"`},
		{"vertex overflow", verticesText(MaxVertices + 1), MaxVertices + 2, "more than 65536 vertices"},
		{"edge undeclared", "t # 0\nv 0 1\ne 0 1\n", 3, "edge {0,1} references undeclared vertex"},
		{"self loop", "t # 0\nv 0 1\ne 0 0\n", 3, "graph: self-loop at vertex 0"},
		{"junk directive", "t # 0\nx y z\n", 2, `unknown directive "x"`},
		{"malformed edge", "t # 0\nv 0 1\nv 1 1\ne 0\n", 4, `want "e <u> <v> [label]", got "e 0"`},
		{"t with five fields", "  t # 0 directed x \r\n", 1, `want "t # <id> [directed]", got "t # 0 directed x"`},
		{"t without hash", "t x 0\n", 1, `want "t # <id> [directed]", got "t x 0"`},
		{"bad flag", "t # 0 sideways\n", 1, `unknown graph flag "sideways"`},
		{"id overflow", "t # 99999999999999999999\n", 1, `bad graph id "99999999999999999999"`},
		{"malformed vertex", "t # 0\n\n// gap\nv 0\n", 4, `want "v <id> <label>", got "v 0"`},
		{"vertex id not a number", "t # 0\nv zero 1\n", 2, `bad vertex line "v zero 1"`},
		{"edge endpoint not a number", "t # 0\nv 0 1\nv 1 1\ne a 1\n", 4, `bad edge line "e a 1"`},
		{"edge endpoint negative", "t # 0\nv 0 1\ne -1 0\n", 3, "edge {-1,0} references undeclared vertex"},
		{"edge label overflow", "t # 0\nv 0 1\nv 1 1\ne 0 1 70000\n", 4, `bad edge label "70000"`},
		{"edge label not a number", "t # 0\nv 0 1\nv 1 1\ne 0 1 x\n", 4, `bad edge label "x"`},
		{"edge with five fields", "t # 0\nv 0 1\nv 1 1\ne 0 1 2 3\n", 4, `want "e <u> <v> [label]", got "e 0 1 2 3"`},
		{"self loop closed by next t", "t # 0\nv 0 1\ne 0 0\nv 1 1\nt # 1\nv 0 1\n", 5, "graph: self-loop at vertex 0"},
		{"self loop closed at EOF without newline", "t # 0\nv 0 1\ne 0 0\nv 1 1", 4, "graph: self-loop at vertex 0"},
		{"error after CRLF lines", "t # 0\r\nv 0 1\r\nq\r\n", 3, `unknown directive "q"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadAll(strings.NewReader(c.in))
			if err == nil {
				t.Fatal("want error, got nil")
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("want *ParseError, got %T: %v", err, err)
			}
			if pe.Line != c.wantLine {
				t.Errorf("error line = %d, want %d (%v)", pe.Line, c.wantLine, err)
			}
			if pe.Msg != c.wantMsg {
				t.Errorf("error message = %q, want %q", pe.Msg, c.wantMsg)
			}
		})
	}
}

// sameGraph reports whether g and h are the same graph vertex for vertex:
// id, kind, labels, edges and edge labels.
func sameGraph(g, h *Graph) bool {
	if g.ID() != h.ID() || g.Directed() != h.Directed() || g.HasEdgeLabels() != h.HasEdgeLabels() ||
		!slices.Equal(g.Labels(), h.Labels()) || !slices.Equal(g.Edges(), h.Edges()) {
		return false
	}
	for _, e := range g.Edges() {
		if g.EdgeLabel(e[0], e[1]) != h.EdgeLabel(e[0], e[1]) {
			return false
		}
	}
	return true
}

// TestCodecAccepts: layouts the grammar allows beyond what WriteGraph
// emits, each against the graph it must produce.
func TestCodecAccepts(t *testing.T) {
	path := MustNew([]Label{1, 2, 3}, [][2]int{{0, 1}, {1, 2}}).WithID(4)
	arcs := NewBuilder(3).SetID(4).Directed().SetLabels([]Label{1, 2, 3}).
		AddLabeledEdge(1, 0, 5).AddLabeledEdge(0, 1, 6).AddLabeledEdge(2, 1, 0).MustBuild()
	long := strings.Repeat(" ", 70_000)
	cases := []struct {
		name, in string
		want     *Graph
	}{
		{"plain", "t # 4\nv 0 1\nv 1 2\nv 2 3\ne 0 1\ne 1 2\n", path},
		{"CRLF", "t # 4\r\nv 0 1\r\nv 1 2\r\nv 2 3\r\ne 0 1\r\ne 1 2\r\n", path},
		{"no final newline", "t # 4\nv 0 1\nv 1 2\nv 2 3\ne 0 1\ne 1 2", path},
		{"comments, blanks, tabs and indents", "// head\n\n \tt  #\t4 \n  // mid\nv 0 1\nv\t1\t2\nv 2 3\n\ne 0 1\n//e 0 2\ne 1 2\n// tail", path},
		{"reversed and repeated edges", "t # 4\nv 0 1\nv 1 2\nv 2 3\ne 2 1\ne 1 0\ne 0 1\ne 1 2\n", path},
		{"signed and padded numbers", "t # +4\nv 0 01\nv +1 2\nv 2 3\ne 0 1\ne 01 2\n", path},
		{"lines longer than 64 KB", "//" + long + "\nt # 4" + long + "\nv 0 1\nv 1 2\nv" + long + "2 3\ne 0 1\ne 1 2\n", path},
		{"directed with edge labels", "t # 4 directed\nv 0 1\nv 1 2\nv 2 3\ne 1 0 5\ne 0 1 6\ne 2 1 0\n", arcs},
		{"the last label of a repeated edge wins", "t # 4 directed\nv 0 1\nv 1 2\nv 2 3\ne 1 0 9\ne 0 1 6\ne 2 1 0\ne 1 0 5\n", arcs},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			gs, err := ReadAll(strings.NewReader(c.in))
			if err != nil || len(gs) != 1 {
				t.Fatalf("ReadAll = %v, %v", gs, err)
			}
			if !sameGraph(gs[0], c.want) {
				t.Errorf("parsed %v with edges %v, want %v with edges %v", gs[0], gs[0].Edges(), c.want, c.want.Edges())
			}
		})
	}
	// Graph boundaries: a graph ends where the next begins, ids are kept.
	gs, err := ReadAll(strings.NewReader("t # 9\nt # -1 directed\nv 0 7\nt # 4\nv 0 1\nv 1 2\nv 2 3\ne 0 1\ne 1 2\n"))
	if err != nil || len(gs) != 3 {
		t.Fatalf("ReadAll = %v, %v", gs, err)
	}
	if gs[0].ID() != 9 || gs[0].N() != 0 || gs[0].Directed() || gs[1].ID() != -1 || gs[1].N() != 1 || !gs[1].Directed() || !sameGraph(gs[2], path) {
		t.Errorf("parsed %v", gs)
	}
}

// FuzzReadAll: the parser never panics, and whatever it accepts survives
// WriteAll and a second parse unchanged.
func FuzzReadAll(f *testing.F) {
	f.Add("")
	f.Add(patternText(12))
	f.Add("t # 0 directed\nv 0 1\nv 1 2\ne 0 1 3\ne 1 0 4\nt # 1\nv 0 0\n")
	f.Add("// c\r\n\r\n t  # 5 \r\nv 0 65535\r\nv 1 0\r\ne 1 0 65535\r\ne 0 1")
	f.Add("t # 0\nv 0 1\ne 0 0\n")
	f.Add("t # 0\nv 0 1\nv\u00a01 1\ne 0 1 -1\n")
	f.Add("t # 99999999999999999999\nv 0 70000\nx\xff\n")
	f.Add(verticesText(MaxVertices + 1))
	f.Fuzz(func(t *testing.T, in string) {
		gs, err := ReadAll(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, gs); err != nil {
			t.Fatal(err)
		}
		back, err := ReadAll(&buf)
		if err != nil || len(back) != len(gs) {
			t.Fatalf("second parse: %d graphs, %v; first parse: %d graphs", len(back), err, len(gs))
		}
		for i := range gs {
			if !sameGraph(gs[i], back[i]) {
				t.Fatalf("graph %d changed in the round trip: %v, then %v", i, gs[i], back[i])
			}
		}
	})
}

func TestCodecEmptyInput(t *testing.T) {
	gs, err := ReadAll(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 0 {
		t.Fatalf("want no graphs, got %d", len(gs))
	}
}

func TestCodecSelfLoopErrorSurfacesFromBuilder(t *testing.T) {
	// The self-loop is caught at Build time but must still be a ParseError.
	_, err := ReadAll(strings.NewReader("t # 0\nv 0 1\nv 1 1\ne 1 1\n"))
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %T: %v", err, err)
	}
}

// verticesText is a graph of n vertices and no edges in the text format.
func verticesText(n int) string {
	var sb strings.Builder
	sb.WriteString("t # 0\n")
	for v := 0; v < n; v++ {
		fmt.Fprintf(&sb, "v %d 1\n", v)
	}
	return sb.String()
}

// patternText renders an n-vertex pattern the shape of the daemon's
// queries: a six-ring with a chain hanging off it, three labels.
func patternText(n int) string {
	b := NewBuilder(n).SetID(7)
	for v := 0; v < n; v++ {
		b.SetLabel(v, Label(1+v%3))
		if v > 0 {
			b.AddEdge(v-1, v)
		}
	}
	b.AddEdge(0, 5)
	var sb strings.Builder
	if err := WriteGraph(&sb, b.MustBuild()); err != nil {
		panic(err)
	}
	return sb.String()
}

func BenchmarkReadAll(b *testing.B) {
	text := patternText(12)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ReadAll(strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSplitFieldsMatchesStringsFields holds the parser's tokeniser to the
// strings.Fields it replaced, on lines mixing ASCII blanks, Unicode
// spaces, multi-byte runes and invalid UTF-8.
func TestSplitFieldsMatchesStringsFields(t *testing.T) {
	pieces := []string{" ", "\t", "\v", "\f", "\r", "\u0085", "\u00a0", "\u2003", "\u3000", "e", "v", "12", "#", "\u00e9", "\xff", "\xe2\x80", "//"}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5000; trial++ {
		var sb strings.Builder
		for k := rng.Intn(12); k > 0; k-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		line := sb.String()
		want := strings.Fields(line)
		var dst [4][]byte
		n := splitFields([]byte(line), dst[:])
		if n != len(want) {
			t.Fatalf("%q: %d fields, strings.Fields finds %d", line, n, len(want))
		}
		for i := 0; i < min(n, len(dst)); i++ {
			if string(dst[i]) != want[i] {
				t.Fatalf("%q: field %d = %q, strings.Fields gives %q", line, i, dst[i], want[i])
			}
		}
	}
}
