package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// Text codec for graph datasets in the gSpan-style transaction format used
// throughout the graph-query literature (and by the AIDS dataset tooling):
//
//	t # <id> [directed]
//	v <vertex-id> <label>
//	e <u> <v> [edge-label]
//
// Vertices must be declared before edges reference them; vertex ids within
// a graph must be consecutive from 0 and below MaxVertices (65 536), and
// labels, vertex and edge, fit 16 bits. Lines starting with "//" and blank
// lines are ignored. The optional "directed" marker and edge labels carry
// the generalized graph types; plain files remain fully compatible.

// WriteGraph writes a single graph in the text format.
func WriteGraph(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if g.Directed() {
		fmt.Fprintf(bw, "t # %d directed\n", g.ID())
	} else {
		fmt.Fprintf(bw, "t # %d\n", g.ID())
	}
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(bw, "v %d %d\n", v, g.Label(v))
	}
	labelled := g.HasEdgeLabels()
	for _, e := range g.Edges() {
		if labelled {
			fmt.Fprintf(bw, "e %d %d %d\n", e[0], e[1], g.EdgeLabel(e[0], e[1]))
		} else {
			fmt.Fprintf(bw, "e %d %d\n", e[0], e[1])
		}
	}
	return bw.Flush()
}

// WriteAll writes the graphs consecutively in the text format.
func WriteAll(w io.Writer, gs []*Graph) error {
	for _, g := range gs {
		if err := WriteGraph(w, g); err != nil {
			return err
		}
	}
	return nil
}

// ParseError describes a syntax error in the text format with its 1-based
// line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("graph: parse error at line %d: %s", e.Line, e.Msg)
}

// ReadAll parses all graphs from r in the text format. It reads r to the
// end once and tokenises the bytes where they lie: a daemon parses one
// small pattern per request, so the parser owns no per-call line buffer and
// builds no per-line strings.
func ReadAll(r io.Reader) ([]*Graph, error) {
	// io.Copy lets a reader that holds its bytes already (strings.Reader,
	// bytes.Reader) hand them over in one exactly sized write.
	var input bytes.Buffer
	if _, err := io.Copy(&input, r); err != nil {
		return nil, err
	}
	data := input.Bytes()
	var (
		out  []*Graph
		open bool
		line int
		// One builder serves every graph of the input: vertex lines append
		// to its labels, Build copies what the graph keeps, finish rewinds.
		b = Builder{labels: make([]Label, 0, 16), edges: make([]uint64, 0, 16)}
	)
	fail := func(msg string, args ...any) error {
		return &ParseError{line, fmt.Sprintf(msg, args...)}
	}
	finish := func() error {
		if !open {
			return nil
		}
		g, err := b.Build()
		if err != nil {
			return &ParseError{line, err.Error()}
		}
		out = append(out, g)
		b = Builder{labels: b.labels[:0], edges: b.edges[:0]}
		open = false
		return nil
	}

	for len(data) > 0 {
		line++
		var text []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			text, data = data[:i], data[i+1:]
		} else {
			text, data = data, nil
		}
		text = bytes.TrimSpace(text)
		if len(text) == 0 || bytes.HasPrefix(text, []byte("//")) {
			continue
		}
		var fields [4][]byte // no directive takes more
		n := splitFields(text, fields[:])
		switch string(fields[0]) {
		case "t":
			if err := finish(); err != nil {
				return nil, err
			}
			if (n != 3 && n != 4) || string(fields[1]) != "#" {
				return nil, fail("want %q, got %q", "t # <id> [directed]", text)
			}
			if n == 4 {
				if string(fields[3]) != "directed" {
					return nil, fail("unknown graph flag %q", fields[3])
				}
				b.directed = true
			}
			id, err := strconv.Atoi(string(fields[2]))
			if err != nil {
				return nil, fail("bad graph id %q", fields[2])
			}
			b.id, open = id, true
		case "v":
			if !open {
				return nil, fail("vertex line before any 't' line")
			}
			if n != 3 {
				return nil, fail("want %q, got %q", "v <id> <label>", text)
			}
			vid, err1 := strconv.Atoi(string(fields[1]))
			lab, err2 := strconv.Atoi(string(fields[2]))
			if err1 != nil || err2 != nil || lab < 0 || lab > 0xFFFF {
				return nil, fail("bad vertex line %q", text)
			}
			if vid != len(b.labels) {
				return nil, fail("vertex ids must be consecutive from 0; got %d, want %d", vid, len(b.labels))
			}
			if vid >= MaxVertices {
				return nil, fail("more than %d vertices", MaxVertices)
			}
			b.labels = append(b.labels, Label(lab))
		case "e":
			if !open {
				return nil, fail("edge line before any 't' line")
			}
			if n != 3 && n != 4 {
				return nil, fail("want %q, got %q", "e <u> <v> [label]", text)
			}
			u, err1 := strconv.Atoi(string(fields[1]))
			v, err2 := strconv.Atoi(string(fields[2]))
			if err1 != nil || err2 != nil {
				return nil, fail("bad edge line %q", text)
			}
			if u < 0 || u >= len(b.labels) || v < 0 || v >= len(b.labels) {
				return nil, fail("edge {%d,%d} references undeclared vertex", u, v)
			}
			if n == 3 {
				b.AddEdge(u, v)
				break
			}
			el, err := strconv.Atoi(string(fields[3]))
			if err != nil || el < 0 || el > 0xFFFF {
				return nil, fail("bad edge label %q", fields[3])
			}
			b.AddLabeledEdge(u, v, Label(el))
		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}
	if err := finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// splitFields is strings.Fields over a byte slice, without the slice it
// allocates: it stores the leading fields of s in dst and returns how many
// fields s has, which may be more than dst holds. Like strings.Fields it
// takes the ASCII blanks in its stride and asks unicode.IsSpace about the
// rest.
func splitFields(s []byte, dst [][]byte) int {
	n, start := 0, -1 // start of the field being scanned, -1 between fields
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRune(s[i:])
		}
		if c == ' ' || ('\t' <= c && c <= '\r') || (c >= utf8.RuneSelf && unicode.IsSpace(c)) {
			if start >= 0 {
				if n < len(dst) {
					dst[n] = s[start:i]
				}
				n++
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		if n < len(dst) {
			dst[n] = s[start:]
		}
		n++
	}
	return n
}
