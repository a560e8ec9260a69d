package server

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"

	"graphcache/internal/bitset"
	"graphcache/internal/core"
)

// buffer is a pooled byte slice. A request body is read into one and a
// query reply is encoded into one; see the package comment for the rule
// that makes the reuse safe.
type buffer struct{ b []byte }

// maxPooledBuffer is the largest buffer the pool keeps: an 8 MB request
// body or a reply with every id of a large dataset is served, then
// dropped, so that one of them does not stay pinned per idle P.
const maxPooledBuffer = 1 << 20

var bufferPool = sync.Pool{New: func() any { return &buffer{b: make([]byte, 0, 4096)} }}

func getBuffer() *buffer {
	buf := bufferPool.Get().(*buffer)
	buf.b = buf.b[:0]
	return buf
}

func putBuffer(buf *buffer) {
	if cap(buf.b) <= maxPooledBuffer {
		bufferPool.Put(buf)
	}
}

// readFrom appends r to the buffer up to EOF.
func (buf *buffer) readFrom(r io.Reader) error {
	for {
		if len(buf.b) == cap(buf.b) {
			buf.b = append(buf.b, 0)[:len(buf.b)]
		}
		n, err := r.Read(buf.b[len(buf.b):cap(buf.b)])
		buf.b = buf.b[:len(buf.b)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// encoder appends query results to a buffer in exactly the bytes
// encoding/json produces for the structs the API was first written with
// (kept as the oracle in encode_test.go): its indented layout with no
// prefix and a two-space indent when indent is set, its compact layout
// otherwise. Answer ids go from the bitset straight into the buffer;
// nothing is built in between.
type encoder struct {
	*buffer
	indent bool
	depth  int
}

// newline starts a line at the current depth; compact output has none.
func (e *encoder) newline() {
	if !e.indent {
		return
	}
	e.b = append(e.b, '\n')
	for i := 0; i < e.depth; i++ {
		e.b = append(e.b, ' ', ' ')
	}
}

// open begins an object or array and close ends it; one that got no
// member is written {} or [] as encoding/json writes it.
func (e *encoder) open(bracket byte) {
	e.b = append(e.b, bracket)
	e.depth++
}

func (e *encoder) close(bracket byte) {
	e.depth--
	if c := e.b[len(e.b)-1]; c != '{' && c != '[' {
		e.newline()
	}
	e.b = append(e.b, bracket)
}

// next begins the next member or element of the innermost open object or
// array: no value ends in a bracket that opens one, so the last byte says
// whether a comma is due.
func (e *encoder) next() {
	if c := e.b[len(e.b)-1]; c != '{' && c != '[' {
		e.b = append(e.b, ',')
	}
	e.newline()
}

// key begins the member called name, which must need no escaping.
func (e *encoder) key(name string) {
	e.next()
	e.b = append(e.b, '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, '"', ':')
	if e.indent {
		e.b = append(e.b, ' ')
	}
}

func (e *encoder) int(n int) { e.b = strconv.AppendInt(e.b, int64(n), 10) }

// float follows encoding/json: the shortest decimal that round-trips, in
// exponent form outside [1e-6, 1e21) with a one-digit exponent unpadded.
// f must be finite (TestSpeedup always is).
func (e *encoder) float(f float64) {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// string quotes s. Hit kinds are plain words and take the first branch;
// an error message may hold anything, and encoding/json's escaping (HTML
// characters, invalid UTF-8, U+2028) is not worth a second copy here.
func (e *encoder) string(s string) {
	plain := true
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			plain = false
			break
		}
	}
	if plain {
		e.b = append(e.b, '"')
		e.b = append(e.b, s...)
		e.b = append(e.b, '"')
		return
	}
	quoted, _ := json.Marshal(s) // a string always marshals
	e.b = append(e.b, quoted...)
}

// set writes the ids of s as an array, one to a line when indenting.
func (e *encoder) set(s *bitset.Set) {
	e.open('[')
	s.ForEach(func(id int) bool {
		e.next()
		e.int(id)
		return true
	})
	e.close(']')
}

// result writes one query result: the Query Journey quantities of
// core.Result under the API's names.
func (e *encoder) result(res *core.Result) {
	e.open('{')
	e.key("answers")
	e.set(res.Answers)
	e.key("sure")
	e.set(res.Sure)
	e.key("excluded")
	e.set(res.Excluded)
	e.key("tests")
	e.int(res.Tests)
	e.key("baseCandidates")
	e.int(res.BaseCandidates)
	e.key("testSpeedup")
	e.float(res.TestSpeedup())
	e.key("exactHit")
	e.b = strconv.AppendBool(e.b, res.ExactHit)
	e.key("hits")
	e.open('[')
	for _, h := range res.Hits {
		e.next()
		e.open('{')
		e.key("entry")
		e.int(h.EntryID)
		e.key("kind")
		e.string(h.Kind.String())
		e.key("savedTests")
		e.int(h.SavedTests)
		e.close('}')
	}
	e.close(']')
	e.close('}')
}

// outcome is one batch query's fate: the message of the error that
// stopped it, or its result.
type outcome struct {
	err string
	res *core.Result
}

// item writes one batch outcome under its request index; "error" and
// "result" are each left out when empty.
func (e *encoder) item(index int, o outcome) {
	e.open('{')
	e.key("index")
	e.int(index)
	if o.err != "" {
		e.key("error")
		e.string(o.err)
	}
	if o.res != nil {
		e.key("result")
		e.result(o.res)
	}
	e.close('}')
}

// batch writes the buffered /api/query/batch reply: every outcome in
// request order, then the worker count used.
func (e *encoder) batch(outcomes []outcome, workers int) {
	e.open('{')
	e.key("results")
	e.open('[')
	for i, o := range outcomes {
		e.next()
		e.item(i, o)
	}
	e.close(']')
	e.key("workers")
	e.int(workers)
	e.close('}')
}
