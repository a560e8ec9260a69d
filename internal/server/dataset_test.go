package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"graphcache/internal/gen"
)

func doJSON(t *testing.T, srv *Server, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	out := map[string]any{}
	if len(rec.Body.Bytes()) > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: bad JSON response: %v\n%s", method, path, err, rec.Body.String())
		}
	}
	return rec, out
}

func TestDatasetMutationEndpoints(t *testing.T) {
	srv, dataset := testServer(t)
	rng := rand.New(rand.NewSource(7))
	newGraph := gen.Molecules(rng, 1, gen.MoleculeConfig{MinV: 10, MaxV: 14, RingFrac: 0.1, MaxDegree: 4, Labels: 6})[0]

	// Baseline stats.
	_, stats := doJSON(t, srv, http.MethodGet, "/api/stats", "")
	if int(stats["datasetSize"].(float64)) != len(dataset) || stats["epoch"].(float64) != 0 {
		t.Fatalf("baseline stats wrong: %v %v", stats["datasetSize"], stats["epoch"])
	}

	// Append a graph.
	body, _ := json.Marshal(map[string]string{"graph": graphText(t, newGraph)})
	rec, out := doJSON(t, srv, http.MethodPost, "/api/dataset/graphs", string(body))
	if rec.Code != http.StatusCreated {
		t.Fatalf("POST graph: status %d: %s", rec.Code, rec.Body.String())
	}
	newID := int(out["id"].(float64))
	if newID != len(dataset) {
		t.Fatalf("new graph id %d, want %d", newID, len(dataset))
	}
	if int(out["datasetSize"].(float64)) != len(dataset)+1 || out["epoch"].(float64) != 1 {
		t.Fatalf("mutation response wrong: %v", out)
	}

	// A pattern of the added graph must now answer with it.
	pattern := gen.ExtractConnectedSubgraph(rng, newGraph, 5)
	qbody, _ := json.Marshal(map[string]string{"graph": graphText(t, pattern), "type": "subgraph"})
	rec, qout := doJSON(t, srv, http.MethodPost, "/api/query", string(qbody))
	if rec.Code != http.StatusOK {
		t.Fatalf("query: status %d: %s", rec.Code, rec.Body.String())
	}
	found := false
	for _, a := range qout["answers"].([]any) {
		if int(a.(float64)) == newID {
			found = true
		}
	}
	if !found {
		t.Fatalf("added graph %d missing from answers %v", newID, qout["answers"])
	}

	// The added graph is served by the dataset endpoint (as graph text).
	rawReq := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/dataset/%d", newID), nil)
	rawRec := httptest.NewRecorder()
	srv.ServeHTTP(rawRec, rawReq)
	if rawRec.Code != http.StatusOK || !strings.Contains(rawRec.Body.String(), "t #") {
		t.Fatalf("GET added graph: status %d body %q", rawRec.Code, rawRec.Body.String())
	}

	// Remove graph 0; its id turns 410 and stats reflect the tombstone.
	rec, out = doJSON(t, srv, http.MethodDelete, "/api/dataset/graphs/0", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE graph 0: status %d: %s", rec.Code, rec.Body.String())
	}
	if int(out["datasetSize"].(float64)) != len(dataset) || out["epoch"].(float64) != 2 {
		t.Fatalf("delete response wrong: %v", out)
	}
	rec, _ = doJSON(t, srv, http.MethodGet, "/api/dataset/0", "")
	if rec.Code != http.StatusGone {
		t.Fatalf("GET removed graph: status %d, want 410", rec.Code)
	}
	_, stats = doJSON(t, srv, http.MethodGet, "/api/stats", "")
	if int(stats["datasetSize"].(float64)) != len(dataset) ||
		int(stats["datasetIdSpace"].(float64)) != len(dataset)+1 ||
		stats["epoch"].(float64) != 2 ||
		stats["datasetAdds"].(float64) != 1 || stats["datasetRemoves"].(float64) != 1 {
		t.Fatalf("post-churn stats wrong: %s", mustJSON(stats))
	}

	// Error paths.
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodDelete, "/api/dataset/graphs/0", "", http.StatusGone},       // double remove: gone, like GET
		{http.MethodDelete, "/api/dataset/graphs/999", "", http.StatusNotFound}, // never existed
		{http.MethodDelete, "/api/dataset/graphs/abc", "", http.StatusNotFound}, // bad id
		{http.MethodGet, "/api/dataset/graphs", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/api/dataset/graphs", `{"graph":"not a graph"}`, http.StatusBadRequest},
		{http.MethodPost, "/api/dataset/graphs", `{`, http.StatusBadRequest},
	} {
		rec, _ := doJSON(t, srv, tc.method, tc.path, tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, rec.Code, tc.want)
		}
	}
}

func mustJSON(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestStatsReportFilterMaintenance pins the PR-5 observability surface:
// /api/stats exposes the incremental-insert counters and the addition-log
// length, and they move with dataset mutations — additions are counted as
// filter inserts (never rebuilds: the bundled GGSX filter is insertable)
// and the eager-mode compaction keeps the log drained. It also exposes the
// stopped-world clocks, which a mutation moves without rehashing any
// cached answer set.
func TestStatsReportFilterMaintenance(t *testing.T) {
	srv, _ := testServer(t)
	rng := rand.New(rand.NewSource(17))
	extra := gen.Molecules(rng, 2, gen.MoleculeConfig{MinV: 10, MaxV: 14, RingFrac: 0.1, MaxDegree: 4, Labels: 6})

	_, stats := doJSON(t, srv, http.MethodGet, "/api/stats", "")
	for _, field := range []string{"filterInserts", "filterRebuilds", "additionLogLen", "logCompactions",
		"windowTurnNs", "mutationWaitNs", "mutationHoldNs", "setRehashes"} {
		if _, ok := stats[field]; !ok {
			t.Fatalf("/api/stats is missing %q: %s", field, mustJSON(stats))
		}
	}
	if stats["filterInserts"].(float64) != 0 || stats["additionLogLen"].(float64) != 0 {
		t.Fatalf("baseline maintenance stats not zero: %s", mustJSON(stats))
	}

	for _, g := range extra {
		body, _ := json.Marshal(map[string]string{"graph": graphText(t, g)})
		if rec, _ := doJSON(t, srv, http.MethodPost, "/api/dataset/graphs", string(body)); rec.Code != http.StatusCreated {
			t.Fatalf("POST graph: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	_, stats = doJSON(t, srv, http.MethodGet, "/api/stats", "")
	if stats["filterInserts"].(float64) != 2 || stats["filterRebuilds"].(float64) != 0 {
		t.Fatalf("filter counters after 2 adds: %s", mustJSON(stats))
	}
	// The default engine reconciles eagerly: each mutation's stop-the-world
	// pass compacts the record it appended.
	if stats["additionLogLen"].(float64) != 0 {
		t.Fatalf("addition log not drained in eager mode: %s", mustJSON(stats))
	}
	if stats["logCompactions"].(float64) == 0 {
		t.Fatalf("no compaction recorded after additions: %s", mustJSON(stats))
	}
	if stats["mutationHoldNs"].(float64) == 0 || stats["setRehashes"].(float64) != 0 {
		t.Fatalf("two adds must be timed and must hash nothing: %s", mustJSON(stats))
	}
}
