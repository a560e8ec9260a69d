package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"graphcache/internal/core"
	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

func testServer(t *testing.T) (*Server, []*graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	dataset := gen.Molecules(rng, 30, gen.MoleculeConfig{MinV: 10, MaxV: 16, RingFrac: 0.1, MaxDegree: 4, Labels: 6})
	method := ftv.NewGGSXMethod(dataset, 3)
	cfg := core.DefaultConfig()
	cfg.Window = 1
	c, err := core.New(method, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(c), dataset
}

func graphText(t *testing.T, g *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func postQuery(t *testing.T, srv *Server, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/api/query", strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON response: %v\n%s", err, rec.Body.String())
	}
	return rec, out
}

func TestQueryEndpoint(t *testing.T) {
	srv, dataset := testServer(t)
	rng := rand.New(rand.NewSource(2))
	pattern := gen.ExtractConnectedSubgraph(rng, dataset[0], 5)

	body, _ := json.Marshal(map[string]string{"graph": graphText(t, pattern), "type": "subgraph"})
	rec, out := postQuery(t, srv, string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	answers, ok := out["answers"].([]any)
	if !ok || len(answers) == 0 {
		t.Fatalf("no answers: %v", out)
	}
	// Graph 0 must be among the answers.
	found := false
	for _, a := range answers {
		if a.(float64) == 0 {
			found = true
		}
	}
	if !found {
		t.Error("extraction source missing from answers")
	}
	if out["exactHit"].(bool) {
		t.Error("first query cannot be exact hit")
	}

	// Resubmission via the API exact-hits.
	_, out2 := postQuery(t, srv, string(body))
	if !out2["exactHit"].(bool) {
		t.Error("resubmission should exact-hit")
	}
	if out2["tests"].(float64) != 0 {
		t.Error("exact hit should run zero tests")
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	srv, _ := testServer(t)
	cases := []struct {
		name, body string
		wantStatus int
	}{
		{"bad json", "{", http.StatusBadRequest},
		{"bad graph", `{"graph":"nonsense"}`, http.StatusBadRequest},
		{"no graph", `{"graph":""}`, http.StatusBadRequest},
		{"two graphs", `{"graph":"t # 0\nv 0 1\nt # 1\nv 0 1\n"}`, http.StatusBadRequest},
		{"bad type", `{"graph":"t # 0\nv 0 1\n","type":"sideways"}`, http.StatusBadRequest},
		// Bytes after the JSON value: json.Decoder stopped at the value
		// and served the query.
		{"trailing garbage", `{"graph":"t # 0\nv 0 1\n"} garbage`, http.StatusBadRequest},
		{"second value", `{"graph":"t # 0\nv 0 1\n"}{"graph":"t # 0\nv 0 1\n"}`, http.StatusBadRequest},
		{"empty body", ``, http.StatusBadRequest},
		// Too large is not malformed, wherever the limit falls in the JSON.
		{"oversized body", `{"graph":"` + strings.Repeat("x", maxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge},
		{"oversized by trailing blanks", `{"graph":"t # 0\nv 0 1\n"}` + strings.Repeat(" ", maxBodyBytes), http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec, out := postQuery(t, srv, c.body)
			if rec.Code != c.wantStatus {
				t.Errorf("status = %d, want %d (%v)", rec.Code, c.wantStatus, out)
			}
			if _, ok := out["error"]; !ok {
				t.Error("error body missing")
			}
		})
	}
	// Trailing blanks are not garbage.
	if rec, out := postQuery(t, srv, `{"graph":"t # 0\nv 0 1\n"}`+" \r\n\t"); rec.Code != http.StatusOK {
		t.Errorf("trailing blanks: status %d (%v)", rec.Code, out)
	}
	// Method not allowed.
	req := httptest.NewRequest(http.MethodGet, "/api/query", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /api/query status = %d", rec.Code)
	}
}

func TestStatsAndEntries(t *testing.T) {
	srv, dataset := testServer(t)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3; i++ {
		pattern := gen.ExtractConnectedSubgraph(rng, dataset[i], 4)
		body, _ := json.Marshal(map[string]string{"graph": graphText(t, pattern)})
		postQuery(t, srv, string(body))
	}

	req := httptest.NewRequest(http.MethodGet, "/api/stats", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var stats statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Queries != 3 {
		t.Errorf("queries = %d", stats.Queries)
	}
	if stats.Policy != "hd" {
		t.Errorf("policy = %q", stats.Policy)
	}
	if stats.CachedEntries == 0 {
		t.Error("no cached entries after window-1 executions")
	}
	// Window 1: every admission turned the window, so nothing is pending.
	if stats.Shards <= 0 {
		t.Errorf("shards = %d", stats.Shards)
	}
	if stats.WindowPending != 0 || stats.WindowTurns != stats.Admissions {
		t.Errorf("windowPending %d, windowTurns %d, admissions %d: want 0 pending and a turn per admission",
			stats.WindowPending, stats.WindowTurns, stats.Admissions)
	}

	req = httptest.NewRequest(http.MethodGet, "/api/entries", nil)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var entries []entryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != stats.CachedEntries {
		t.Errorf("entries %d != stats %d", len(entries), stats.CachedEntries)
	}
	for _, e := range entries {
		if e.Vertices == 0 || e.Type == "" {
			t.Errorf("bad entry %+v", e)
		}
	}
}

func TestDatasetEndpoint(t *testing.T) {
	srv, dataset := testServer(t)
	get := func(path string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}

	rec := get("/api/dataset/0")
	if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Body.String(), "t # 0") {
		t.Errorf("text format wrong: %d %q", rec.Code, rec.Body.String()[:20])
	}
	// The text round-trips through the codec.
	back, err := graph.ReadAll(bytes.NewReader(rec.Body.Bytes()))
	if err != nil || len(back) != 1 || back[0].N() != dataset[0].N() {
		t.Errorf("dataset text not parseable: %v", err)
	}

	rec = get("/api/dataset/0?format=dot")
	if !strings.Contains(rec.Body.String(), "graph g0 {") {
		t.Errorf("dot format wrong: %q", rec.Body.String()[:30])
	}
	rec = get("/api/dataset/0?format=ascii")
	if !strings.Contains(rec.Body.String(), "—") {
		t.Error("ascii format wrong")
	}
	if rec := get("/api/dataset/9999"); rec.Code != http.StatusNotFound {
		t.Errorf("missing graph status = %d", rec.Code)
	}
	if rec := get("/api/dataset/abc"); rec.Code != http.StatusNotFound {
		t.Errorf("bad id status = %d", rec.Code)
	}
}

func TestIndexPage(t *testing.T) {
	srv, _ := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "GraphCache") {
		t.Error("index page missing title")
	}
	if rec := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/nope", nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}(); rec.Code != http.StatusNotFound {
		t.Errorf("unknown route status = %d", rec.Code)
	}
}

func TestSupergraphQueryViaAPI(t *testing.T) {
	srv, dataset := testServer(t)
	rng := rand.New(rand.NewSource(4))
	super := gen.Augment(rng, dataset[2], 2, 1, gen.NewAIDSLabelSampler(6))
	body, _ := json.Marshal(map[string]string{"graph": graphText(t, super), "type": "supergraph"})
	rec, out := postQuery(t, srv, string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, out)
	}
	answers := out["answers"].([]any)
	found := false
	for _, a := range answers {
		if a.(float64) == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("augmented source graph 2 missing from supergraph answers: %v", answers)
	}
}

func ExampleServer() {
	// Build a tiny deployment and ask it a question end to end.
	rng := rand.New(rand.NewSource(9))
	dataset := gen.Molecules(rng, 10, gen.MoleculeConfig{MinV: 8, MaxV: 10, RingFrac: 0, MaxDegree: 4, Labels: 4})
	method := ftv.NewGGSXMethod(dataset, 2)
	c, _ := core.New(method, core.DefaultConfig())
	srv := httptest.NewServer(New(c))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/stats")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer resp.Body.Close()
	var stats struct {
		Queries int64 `json:"queries"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&stats)
	fmt.Println("queries so far:", stats.Queries)
	// Output: queries so far: 0
}
