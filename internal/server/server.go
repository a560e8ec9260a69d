// Package server implements the Dashboard Manager substitute: an HTTP/JSON
// service over a GraphCache instance. The demo paper drives GC through an
// HTML/JavaScript front-end on a cloud deployment; this package exposes
// the same information — query execution with the Query Journey
// quantities, cache contents, operational statistics, and graph
// visualizations — as a JSON API plus a minimal HTML status page.
//
// # Reply format of the query endpoints
//
// POST /api/query and POST /api/query/batch reply in encoding/json's
// indented layout followed by a newline: no prefix, two-space indent, a
// space after each colon, one answer id per line, an empty list as [];
// each NDJSON line of ?stream=1 is its compact layout. The
// layout is part of the contract and byte-stable: clients tell a reply's
// class by scanning for `"exactHit": true` and `"hits": []` instead of
// decoding ten kilobytes of ids (the benchmark harness does), so a change
// of indent, key order or spacing is a breaking change, to be made
// together with those clients. The bytes come from a hand-written encoder
// (encode.go) that walks the answer bitsets straight into a buffer; the
// structs encoding/json used to marshal survive as the oracle of
// encode_test.go, which holds the encoder to encoding/json byte for byte.
// The other endpoints are cold and marshal through writeJSON.
//
// # Pooled buffers
//
// A request body is read into a pooled buffer and a query reply is encoded
// into one. The rule that makes this safe: nothing may refer to a pooled
// buffer's bytes once it is back in the pool. json.Unmarshal copies every
// string it decodes, http.ResponseWriter.Write may not retain its
// argument, and a handler returns its buffer only after that Write has
// returned. Code that would keep a slice of a body or of a reply — an
// error quoting the body, a json.RawMessage field, a write queued for
// later — must copy first.
package server

// The server is context-strict: handlers thread r.Context() into the
// kernel so a disconnected client cancels its own batch; minting a root
// context here would detach that work from the request lifetime.
// TestStreamBatchClientDisconnect and TestBufferedBatchClientDisconnect
// fail when a batch handler does.

import (
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"log"
	"net/http"
	"strconv"
	"strings"

	"graphcache/internal/core"
	"graphcache/internal/ftv"
	"graphcache/internal/graph"
	"graphcache/internal/viz"
)

// maxBatchWorkers caps the per-request worker pool a /api/query/batch
// caller may ask for, bounding the goroutines one request can spawn.
// maxBatchQueries and maxBodyBytes bound how much work and memory one
// unauthenticated request can pin (even the streaming variant buffers up
// to the whole batch when the client reads slowly).
const (
	maxBatchWorkers = 32
	maxBatchQueries = 256
	maxBodyBytes    = 8 << 20
)

// Server wires a cache and its live dataset into an http.Handler.
// Handlers are served concurrently by net/http; the cache kernel
// processes the resulting in-flight queries in parallel. Dataset reads go
// through the cache's method view, so graphs added or removed at runtime
// (POST /api/dataset/graphs, DELETE /api/dataset/graphs/{id}) are visible
// immediately and consistently.
type Server struct {
	cache *core.Cache
	mux   *http.ServeMux
	// logf records server-side failures (JSON encode errors and the like);
	// defaults to log.Printf, overridable for tests.
	logf func(format string, args ...any)
	// stateSaver persists the cache when POST /api/state/save asks for it.
	// The daemon owns the state path (and the temp-file-plus-rename dance),
	// so it injects the closure via SetStateSaver; while nil the endpoint
	// answers 503.
	stateSaver func() error
}

// New builds the handler over the cache (whose method owns the live
// dataset).
func New(cache *core.Cache) *Server {
	s := &Server{cache: cache, mux: http.NewServeMux(), logf: log.Printf}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/api/stats", s.handleStats)
	s.mux.HandleFunc("/api/entries", s.handleEntries)
	s.mux.HandleFunc("/api/query", s.handleQuery)
	s.mux.HandleFunc("/api/query/batch", s.handleQueryBatch)
	s.mux.HandleFunc("/api/dataset/graphs", s.handleDatasetGraphs)
	s.mux.HandleFunc("/api/dataset/graphs/", s.handleDatasetGraphByID)
	s.mux.HandleFunc("/api/dataset/", s.handleDataset)
	s.mux.HandleFunc("/api/state/save", s.handleStateSave)
	return s
}

// SetStateSaver wires the POST /api/state/save implementation: fn must
// atomically persist the cache's state (the daemon passes a closure over
// its -state path). Call before serving; a nil saver leaves the endpoint
// answering 503.
func (s *Server) SetStateSaver(fn func() error) { s.stateSaver = fn }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON marshals v up front so encode errors surface as a 500 instead
// of a silently truncated 200 (the status line would already be on the
// wire if we streamed the encoder straight into w).
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		s.logf("server: encoding %T response: %v", v, err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, `{"error":%q}`, "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(append(buf, '\n')); err != nil {
		// Headers are gone; all that's left is recording the failure.
		s.logf("server: writing response: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeEncoded sends a query reply the encoder built, with its length (a
// reply past net/http's 2 KB sniffing buffer would go out chunked
// otherwise), and returns the buffer to the pool.
func (s *Server) writeEncoded(w http.ResponseWriter, e *encoder) {
	e.b = append(e.b, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(e.b)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(e.b); err != nil {
		s.logf("server: writing response: %v", err)
	}
	putBuffer(e.buffer)
}

// decodeBody decodes a JSON request body capped at maxBodyBytes,
// distinguishing an oversized body (413) from malformed JSON (400); bytes
// after the JSON value are malformed. It writes the error response itself
// and reports whether decoding succeeded.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := getBuffer()
	defer putBuffer(buf)
	err := buf.readFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = json.Unmarshal(buf.b, v)
	}
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		return false
	}
	s.writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
	return false
}

// statsResponse mirrors core.Snapshot with JSON-friendly names.
type statsResponse struct {
	Queries           int64   `json:"queries"`
	ExactHits         int64   `json:"exactHits"`
	SubHitQueries     int64   `json:"subHitQueries"`
	SuperHitQueries   int64   `json:"superHitQueries"`
	SubHits           int64   `json:"subHits"`
	SuperHits         int64   `json:"superHits"`
	TestsExecuted     int64   `json:"testsExecuted"`
	TestsSaved        int64   `json:"testsSaved"`
	TestSpeedup       float64 `json:"testSpeedup"`
	HitDetectionTests int64   `json:"hitDetectionTests"`
	HitScanEntries    int64   `json:"hitScanEntries"`
	HitFullChecks     int64   `json:"hitFullChecks"`
	HitIndexPruned    int64   `json:"hitIndexPruned"`
	Admissions        int64   `json:"admissions"`
	Evictions         int64   `json:"evictions"`
	WindowTurns       int64   `json:"windowTurns"`
	CachedEntries     int     `json:"cachedEntries"`
	CacheBytes        int     `json:"cacheBytes"`
	Policy            string  `json:"policy"`
	// WindowPending is the number of entries staged for admission.
	WindowPending int `json:"windowPending"`
	// DatasetSize is the number of live (queryable) dataset graphs;
	// DatasetIDSpace additionally counts tombstoned ids. Epoch counts
	// dataset mutations; DatasetAdds/DatasetRemoves split them and
	// MaintenanceTests prices the answer-set reconciliation work.
	DatasetSize      int   `json:"datasetSize"`
	DatasetIDSpace   int   `json:"datasetIdSpace"`
	Epoch            int64 `json:"epoch"`
	DatasetAdds      int64 `json:"datasetAdds"`
	DatasetRemoves   int64 `json:"datasetRemoves"`
	MaintenanceTests int64 `json:"maintenanceTests"`
	// Cumulative nanoseconds inside window turns and inside dataset
	// mutations. Divide by windowTurns or datasetAdds + datasetRemoves
	// for a mean.
	WindowTurnNs   int64 `json:"windowTurnNs"`
	MutationHoldNs int64 `json:"mutationHoldNs"`
}

func (s *Server) statsResponse() statsResponse {
	snap := s.cache.Stats()
	ds := s.cache.DatasetInfo()
	return statsResponse{
		Queries:           snap.Queries,
		ExactHits:         snap.ExactHits,
		SubHitQueries:     snap.SubHitQueries,
		SuperHitQueries:   snap.SuperHitQueries,
		SubHits:           snap.SubHits,
		SuperHits:         snap.SuperHits,
		TestsExecuted:     snap.TestsExecuted,
		TestsSaved:        snap.TestsSaved,
		TestSpeedup:       snap.TestSpeedup(),
		HitDetectionTests: snap.HitDetectionTests,
		HitScanEntries:    snap.HitScanEntries,
		HitFullChecks:     snap.HitFullChecks,
		HitIndexPruned:    snap.HitIndexPruned,
		Admissions:        snap.Admissions,
		Evictions:         snap.Evictions,
		WindowTurns:       snap.WindowTurns,
		CachedEntries:     s.cache.Len(),
		CacheBytes:        s.cache.Bytes(),
		Policy:            s.cache.PolicyName(),
		WindowPending:     s.cache.WindowLen(),
		DatasetSize:       ds.Live,
		DatasetIDSpace:    ds.Size,
		Epoch:             ds.Epoch,
		DatasetAdds:       snap.DatasetAdds,
		DatasetRemoves:    snap.DatasetRemoves,
		MaintenanceTests:  snap.MaintenanceTests,
		WindowTurnNs:      snap.WindowTurnNs,
		MutationHoldNs:    snap.MutationHoldNs,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.writeJSON(w, http.StatusOK, s.statsResponse())
}

type entryResponse struct {
	ID         int     `json:"id"`
	Type       string  `json:"type"`
	Vertices   int     `json:"vertices"`
	Edges      int     `json:"edges"`
	Answers    int     `json:"answers"`
	Hits       int64   `json:"hits"`
	SavedTests float64 `json:"savedTests"`
	LastUsed   int64   `json:"lastUsed"`
}

func (s *Server) handleEntries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	entries := s.cache.Entries()
	out := make([]entryResponse, 0, len(entries))
	for _, e := range entries {
		out = append(out, entryResponse{
			ID:         e.ID,
			Type:       e.Type.String(),
			Vertices:   e.Graph.N(),
			Edges:      e.Graph.M(),
			Answers:    e.Answers().Count(),
			Hits:       e.Hits,
			SavedTests: e.SavedTests,
			LastUsed:   e.LastUsed,
		})
	}
	s.writeJSON(w, http.StatusOK, out)
}

// queryRequest is the POST /api/query payload: a graph in the text codec
// plus the query type.
type queryRequest struct {
	// Graph holds one graph in the gSpan text format ("t # 0\nv 0 1\n...").
	Graph string `json:"graph"`
	// Type is "subgraph" (default) or "supergraph".
	Type string `json:"type"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	g, qt, err := parseQuery(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := s.cache.Execute(g, qt)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "execute: %v", err)
		return
	}
	e := encoder{buffer: getBuffer(), indent: true}
	e.result(res)
	s.writeEncoded(w, &e)
}

// batchRequest is the POST /api/query/batch payload: a list of queries
// processed through the cache's worker pool in one round trip. The reply
// is {"results": [...], "workers": n}, each result an object with the
// query's "index" and either its "result" or, when that query failed (the
// rest of the batch still completes), its "error". With ?stream=1 the
// reply is NDJSON — one such object per line, written and flushed as each
// query completes. Either way the batch runs under the request context, so
// a client that disconnects stops the queries not yet started.
type batchRequest struct {
	Queries []queryRequest `json:"queries"`
	// Workers sizes the worker pool; 0 defaults to 4, capped at
	// maxBatchWorkers.
	Workers int `json:"workers"`
}

// parseQuery decodes one queryRequest into a pattern graph and semantics.
func parseQuery(req queryRequest) (*graph.Graph, ftv.QueryType, error) {
	gs, err := graph.ReadAll(strings.NewReader(req.Graph))
	if err != nil {
		return nil, 0, fmt.Errorf("bad graph: %v", err)
	}
	if len(gs) != 1 {
		return nil, 0, fmt.Errorf("want exactly one graph, got %d", len(gs))
	}
	switch req.Type {
	case "", "subgraph":
		return gs[0], ftv.Subgraph, nil
	case "supergraph":
		return gs[0], ftv.Supergraph, nil
	default:
		return nil, 0, fmt.Errorf("unknown query type %q", req.Type)
	}
}

func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req batchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		s.writeError(w, http.StatusRequestEntityTooLarge, "batch of %d queries exceeds the %d-query limit", len(req.Queries), maxBatchQueries)
		return
	}
	workers := req.Workers
	if workers <= 0 {
		workers = 4
	}
	if workers > maxBatchWorkers {
		workers = maxBatchWorkers
	}

	// Malformed queries are rejected positionally without aborting the
	// batch; only the well-formed remainder reaches the cache.
	outcomes := make([]outcome, len(req.Queries))
	reqs := make([]core.Request, 0, len(req.Queries))
	slots := make([]int, 0, len(req.Queries))
	for i, q := range req.Queries {
		g, qt, err := parseQuery(q)
		if err != nil {
			outcomes[i].err = err.Error()
			continue
		}
		reqs = append(reqs, core.Request{Graph: g, Type: qt})
		slots = append(slots, i)
	}

	if streamRequested(r) {
		s.streamBatch(w, r, outcomes, reqs, slots, workers)
		return
	}

	for j, out := range s.cache.ExecuteAll(r.Context(), reqs, workers) {
		outcomes[slots[j]] = outcomeOf(out.Result, out.Err)
	}
	e := encoder{buffer: getBuffer(), indent: true}
	e.batch(outcomes, workers)
	s.writeEncoded(w, &e)
}

func outcomeOf(res *core.Result, err error) outcome {
	if err != nil {
		return outcome{err: err.Error()}
	}
	return outcome{res: res}
}

// streamRequested reports whether the batch caller asked for the NDJSON
// streaming variant (?stream=1 / true / yes).
func streamRequested(r *http.Request) bool {
	switch strings.ToLower(r.URL.Query().Get("stream")) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// streamBatch is the ?stream=1 pipeline: instead of buffering the whole
// batch, each outcome is written as one NDJSON line — and flushed — the
// moment its query finishes, so clients see the first answers while the
// tail of the batch is still verifying. Malformed queries (already marked
// in outcomes) are emitted first; cache outcomes follow in completion order,
// each tagged with its request index. The batch runs under the request
// context: when the client disconnects (or a write fails, which cancels
// the same context at the next flush), the kernel stops dispatching the
// remaining queries — only the in-flight ones run to completion — instead
// of verifying a whole batch nobody will read.
func (s *Server) streamBatch(w http.ResponseWriter, r *http.Request, outcomes []outcome, reqs []core.Request, slots []int, workers int) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Batch-Workers", strconv.Itoa(workers))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	e := encoder{buffer: getBuffer()}
	defer putBuffer(e.buffer)
	emit := func(index int, o outcome) bool {
		e.b = e.b[:0]
		e.item(index, o)
		e.b = append(e.b, '\n')
		if _, err := w.Write(e.b); err != nil {
			s.logf("server: streaming batch item %d: %v", index, err)
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for i, o := range outcomes {
		if o.err == "" {
			continue // reaches the cache; emitted on completion below
		}
		if !emit(i, o) {
			return
		}
	}
	for so := range s.cache.ExecuteAllStream(r.Context(), reqs, workers) {
		if !emit(slots[so.Index], outcomeOf(so.Result, so.Err)) {
			return
		}
	}
}

// datasetGraphRequest is the POST /api/dataset/graphs payload: one graph
// in the text codec to append to the live dataset.
type datasetGraphRequest struct {
	Graph string `json:"graph"`
}

// datasetMutationResponse reports one dataset mutation: the affected id
// and the dataset shape after the mutation.
type datasetMutationResponse struct {
	ID          int   `json:"id"`
	DatasetSize int   `json:"datasetSize"`
	Epoch       int64 `json:"epoch"`
}

// handleDatasetGraphs serves POST /api/dataset/graphs: append a graph to
// the live dataset. Cached answer sets are maintained exactly by the
// kernel: each reconciles the new graph when it is next read.
func (s *Server) handleDatasetGraphs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req datasetGraphRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	gs, err := graph.ReadAll(strings.NewReader(req.Graph))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad graph: %v", err)
		return
	}
	if len(gs) != 1 {
		s.writeError(w, http.StatusBadRequest, "want exactly one graph, got %d", len(gs))
		return
	}
	id, err := s.cache.AddGraph(gs[0])
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, "add graph: %v", err)
		return
	}
	ds := s.cache.DatasetInfo()
	s.writeJSON(w, http.StatusCreated, datasetMutationResponse{ID: id, DatasetSize: ds.Live, Epoch: ds.Epoch})
}

// handleDatasetGraphByID serves DELETE /api/dataset/graphs/{id}: tombstone
// a live dataset graph. No cached answer set is touched before the call
// returns: a set that holds the id drops it when it is next read, or at
// the next window turn.
func (s *Server) handleDatasetGraphByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		s.writeError(w, http.StatusMethodNotAllowed, "DELETE only")
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/api/dataset/graphs/")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "no dataset graph %q", idStr)
		return
	}
	if err := s.cache.RemoveGraph(id); err != nil {
		// An already-tombstoned id is 410 like the GET handler (a retried
		// DELETE reads as "gone", not "never existed"); anything else is
		// an unknown id.
		view := s.cache.Method().View()
		if id >= 0 && id < view.Size() && view.Graph(id) == nil {
			s.writeError(w, http.StatusGone, "remove graph: %v", err)
			return
		}
		s.writeError(w, http.StatusNotFound, "remove graph: %v", err)
		return
	}
	ds := s.cache.DatasetInfo()
	s.writeJSON(w, http.StatusOK, datasetMutationResponse{ID: id, DatasetSize: ds.Live, Epoch: ds.Epoch})
}

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	view := s.cache.Method().View()
	idStr := strings.TrimPrefix(r.URL.Path, "/api/dataset/")
	id, err := strconv.Atoi(idStr)
	if err != nil || id < 0 || id >= view.Size() {
		s.writeError(w, http.StatusNotFound, "no dataset graph %q", idStr)
		return
	}
	g := view.Graph(id)
	if g == nil {
		s.writeError(w, http.StatusGone, "dataset graph %d was removed", id)
		return
	}
	switch r.URL.Query().Get("format") {
	case "dot":
		w.Header().Set("Content-Type", "text/vnd.graphviz")
		fmt.Fprint(w, viz.ToDOT(g, viz.Options{Name: fmt.Sprintf("g%d", id), VertexNames: viz.AtomNames}))
	case "ascii":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, viz.ASCII(g, viz.Options{VertexNames: viz.AtomNames}))
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := graph.WriteGraph(w, g); err != nil {
			s.writeError(w, http.StatusInternalServerError, "write: %v", err)
		}
	}
}

// stateSaveResponse reports one successful POST /api/state/save.
type stateSaveResponse struct {
	// Entries is the number of cached queries the snapshot captured.
	Entries int `json:"entries"`
}

// handleStateSave serves POST /api/state/save: persist the cache's state
// through the daemon-injected saver. 503 when the daemon was started
// without a state path.
func (s *Server) handleStateSave(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.stateSaver == nil {
		s.writeError(w, http.StatusServiceUnavailable, "state persistence not configured (start the daemon with -state)")
		return
	}
	if err := s.stateSaver(); err != nil {
		s.writeError(w, http.StatusInternalServerError, "saving state: %v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, stateSaveResponse{Entries: s.cache.Len()})
}

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>GraphCache</title></head><body>
<h1>GraphCache</h1>
<p>{{.Queries}} queries · speedup {{printf "%.2f" .TestSpeedup}}× in sub-iso tests
· {{.CachedEntries}} cached queries under {{.Policy}} replacement</p>
<ul>
<li>exact hits: {{.ExactHits}}</li>
<li>sub-case hits: {{.SubHits}} (queries: {{.SubHitQueries}})</li>
<li>super-case hits: {{.SuperHits}} (queries: {{.SuperHitQueries}})</li>
<li>tests executed / saved: {{.TestsExecuted}} / {{.TestsSaved}}</li>
<li>dataset: {{.DatasetSize}} live graphs (epoch {{.Epoch}},
{{.DatasetAdds}} added / {{.DatasetRemoves}} removed,
{{.MaintenanceTests}} maintenance tests)</li>
</ul>
<p>API: GET /api/stats · GET /api/entries · POST /api/query
· POST /api/query/batch (add ?stream=1 for NDJSON streaming)
· GET /api/dataset/{id}?format=dot|ascii|text
· POST /api/dataset/graphs (append a graph to the live dataset)
· DELETE /api/dataset/graphs/{id} (tombstone a graph; cached answers are
maintained exactly)
· POST /api/state/save (persist the cache to the daemon's -state file)</p>
</body></html>`))

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		s.writeError(w, http.StatusNotFound, "no route %q", r.URL.Path)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = indexTmpl.Execute(w, s.statsResponse())
}
