package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"graphcache/internal/core"
	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// replay drives ServeHTTP the way the daemon's connections do, minus the
// transport: one request and one response writer, rewound for every call,
// so that what a benchmark or an allocation count sees is the handler.
type replay struct {
	srv    *Server
	req    *http.Request
	body   rewindBody
	header http.Header
	status int
	wrote  int
}

type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

func (r *replay) Header() http.Header    { return r.header }
func (r *replay) WriteHeader(status int) { r.status = status }
func (r *replay) Write(p []byte) (int, error) {
	r.wrote += len(p)
	return len(p), nil
}

// post serves one POST /api/query with the given body and returns the
// status and the reply's size.
func (r *replay) post(body []byte) (status, size int) {
	r.body.Reset(body)
	clear(r.header)
	r.status, r.wrote = http.StatusOK, 0
	r.srv.ServeHTTP(r, r.req)
	return r.status, r.wrote
}

// newReplay builds a server over 200 molecules whose cache (256 entries,
// window 16) holds one pattern, and returns that pattern's request body
// and a stream of pairwise distinct ones, long enough that a pattern has
// left the cache by the time the stream comes round to it again.
func newReplay(tb testing.TB, streamLen int) (r *replay, exact []byte, misses [][]byte) {
	tb.Helper()
	rng := rand.New(rand.NewSource(97))
	dataset := gen.Molecules(rng, 200, gen.DefaultMoleculeConfig())
	cfg := core.DefaultConfig()
	cfg.Capacity, cfg.Window = 256, 16
	cache, err := core.New(ftv.NewGGSXMethod(dataset, 3), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r = &replay{srv: New(cache), header: http.Header{}}
	r.req = httptest.NewRequest(http.MethodPost, "/api/query", nil)
	r.req.Body = &r.body

	// body renders g as a request, or nil for a pattern seen before.
	seen := map[graph.Fingerprint]bool{}
	body := func(g *graph.Graph) []byte {
		fp := g.WLFingerprint(3)
		if seen[fp] {
			return nil
		}
		seen[fp] = true
		var text bytes.Buffer
		if err := graph.WriteGraph(&text, g); err != nil {
			tb.Fatal(err)
		}
		b, err := json.Marshal(map[string]string{"graph": text.String(), "type": "subgraph"})
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	exact = body(gen.ExtractConnectedSubgraph(rng, dataset[0], 12))
	if status, _ := r.post(exact); status != http.StatusOK {
		tb.Fatalf("priming query: status %d", status)
	}
	for i := 1; len(misses) < streamLen && i < 64*streamLen; i++ {
		if b := body(gen.ExtractConnectedSubgraph(rng, dataset[i%len(dataset)], 4+rng.Intn(8))); b != nil {
			misses = append(misses, b)
		}
	}
	if len(misses) < streamLen {
		tb.Fatalf("only %d distinct patterns for a stream of %d", len(misses), streamLen)
	}
	return r, exact, misses
}

// BenchmarkHandleQueryExact is the request the daemon mostly serves: a
// pattern it has cached, arriving as text it has never seen — decode,
// parse, fingerprint, probe, encode.
func BenchmarkHandleQueryExact(b *testing.B) {
	r, exact, _ := newReplay(b, 0)
	b.ReportAllocs()
	for b.Loop() {
		if status, _ := r.post(exact); status != http.StatusOK {
			b.Fatalf("status %d", status)
		}
	}
}

// BenchmarkHandleQueryMiss is the same request when the cache cannot
// answer it: the handler's share shrinks to what it adds around filter,
// hit detection and verification.
func BenchmarkHandleQueryMiss(b *testing.B) {
	r, _, misses := newReplay(b, 2048)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if status, _ := r.post(misses[i%len(misses)]); status != http.StatusOK {
			b.Fatalf("status %d", status)
		}
		i++
	}
}
