package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"graphcache/internal/bitset"
	"graphcache/internal/core"
	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// The reply structs the query endpoints marshalled with encoding/json
// before the hand-written encoder, kept as its oracle: the encoder must
// produce, byte for byte, what json.MarshalIndent(v, "", "  ") and
// json.Marshal produce for them.

type queryResponse struct {
	Answers        []int       `json:"answers"`
	Sure           []int       `json:"sure"`
	Excluded       []int       `json:"excluded"`
	Tests          int         `json:"tests"`
	BaseCandidates int         `json:"baseCandidates"`
	TestSpeedup    float64     `json:"testSpeedup"`
	ExactHit       bool        `json:"exactHit"`
	Hits           []hitDetail `json:"hits"`
}

type hitDetail struct {
	Entry      int    `json:"entry"`
	Kind       string `json:"kind"`
	SavedTests int    `json:"savedTests"`
}

type batchItem struct {
	Index int            `json:"index"`
	Error string         `json:"error,omitempty"`
	Query *queryResponse `json:"result,omitempty"`
}

type batchResponse struct {
	Results []batchItem `json:"results"`
	Workers int         `json:"workers"`
}

func toQueryResponse(res *core.Result) queryResponse {
	resp := queryResponse{
		Answers:        res.Answers.Indices(),
		Sure:           res.Sure.Indices(),
		Excluded:       res.Excluded.Indices(),
		Tests:          res.Tests,
		BaseCandidates: res.BaseCandidates,
		TestSpeedup:    res.TestSpeedup(),
		ExactHit:       res.ExactHit,
		Hits:           make([]hitDetail, 0, len(res.Hits)),
	}
	for _, h := range res.Hits {
		resp.Hits = append(resp.Hits, hitDetail{Entry: h.EntryID, Kind: h.Kind.String(), SavedTests: h.SavedTests})
	}
	return resp
}

func toBatchItem(index int, o outcome) batchItem {
	item := batchItem{Index: index, Error: o.err}
	if o.res != nil {
		resp := toQueryResponse(o.res)
		item.Query = &resp
	}
	return item
}

func mustMarshal(t *testing.T, v any, indent bool) string {
	t.Helper()
	var out []byte
	var err error
	if indent {
		out, err = json.MarshalIndent(v, "", "  ")
	} else {
		out, err = json.Marshal(v)
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// encoded runs write on a fresh encoder and returns what it appended.
func encoded(indent bool, write func(e *encoder)) string {
	e := encoder{buffer: getBuffer(), indent: indent}
	defer putBuffer(e.buffer)
	write(&e)
	return string(e.b)
}

// journey is the query sequence both differential tests drive: a miss, a
// sub-case hit on it, a super-case hit on it, an exact hit, and — sub and
// super — a pattern no dataset graph can answer.
type journeyStep struct {
	name    string
	pattern *graph.Graph
	qt      ftv.QueryType
}

func journey(dataset []*graph.Graph) []journeyStep {
	rng := rand.New(rand.NewSource(21))
	big := gen.ExtractConnectedSubgraph(rng, dataset[0], 8)
	mid := gen.ExtractConnectedSubgraph(rng, big, 5)
	small := gen.ExtractConnectedSubgraph(rng, mid, 3)
	alien := graph.MustNew([]graph.Label{60000, 60001}, [][2]int{{0, 1}})
	return []journeyStep{
		{"miss", mid, ftv.Subgraph},
		{"sub", small, ftv.Subgraph},
		{"super", big, ftv.Subgraph},
		{"exact", mid, ftv.Subgraph},
		{"empty", alien, ftv.Subgraph},
		{"empty super", alien, ftv.Supergraph},
	}
}

// checkJourneyClasses fails unless the decoded replies are the classes
// journey names, so neither test can pass on six plain misses.
func checkJourneyClasses(t *testing.T, got []queryResponse) {
	t.Helper()
	// kinds reports the one kind every hit of r has, or "" for none or a mix.
	kinds := func(r queryResponse) string {
		kind := ""
		for i, h := range r.Hits {
			if i > 0 && h.Kind != kind {
				return ""
			}
			kind = h.Kind
		}
		return kind
	}
	miss, sub, super, exact, empty, emptySuper := got[0], got[1], got[2], got[3], got[4], got[5]
	switch {
	case miss.ExactHit || len(miss.Hits) != 0 || len(miss.Answers) == 0:
		t.Errorf("miss: %+v", miss)
	case sub.ExactHit || kinds(sub) != "sub" || len(sub.Sure) == 0:
		t.Errorf("sub: %+v", sub)
	case super.ExactHit || kinds(super) != "super":
		t.Errorf("super: %+v", super)
	case !exact.ExactHit || kinds(exact) != "exact" || exact.Tests != 0 || len(exact.Answers) != len(miss.Answers):
		t.Errorf("exact: %+v", exact)
	case len(empty.Answers) != 0 || len(emptySuper.Answers) != 0:
		t.Errorf("empty: %+v, %+v", empty, emptySuper)
	}
}

// syntheticResults are results no small cache produces: answer sets in
// every container (scattered, one long run, dense) with ids past 100 000,
// every hit kind including one String() does not know, and speedups that
// take encoding/json's float formatting through its exponent branch.
func syntheticResults() []*core.Result {
	const capacity = 200_000
	scattered, run, dense := bitset.New(capacity), bitset.New(capacity), bitset.New(capacity)
	for i := 0; i < capacity; i += 9973 {
		scattered.Add(i)
	}
	for i := 100_000; i < 100_300; i++ {
		run.Add(i)
	}
	for i := 0; i < 4096; i += 2 {
		dense.Add(i)
	}
	scattered.Compact()
	run.Compact()
	dense.Compact()
	empty := bitset.New(capacity)
	return []*core.Result{
		{Answers: scattered, Sure: run, Excluded: dense, Tests: 3, BaseCandidates: 10,
			Hits: []core.HitRef{{EntryID: 1, Kind: core.SubHit, SavedTests: 4}, {EntryID: 99, Kind: core.SuperHit}, {EntryID: 7, Kind: core.HitKind(7), SavedTests: -1}}},
		{Answers: dense, Sure: empty, Excluded: empty, Tests: 10_000_000, BaseCandidates: 1},
		{Answers: run, Sure: run, Excluded: empty, Tests: 7, BaseCandidates: 0},
		{Answers: empty, Sure: empty, Excluded: scattered, Tests: 0, BaseCandidates: 1 << 40, ExactHit: true,
			Hits: []core.HitRef{{EntryID: 1 << 33, Kind: core.ExactHit, SavedTests: 1 << 40}}},
	}
}

// TestEncoderMatchesEncodingJSON is the byte-identity proof at the
// encoder: every kind of result, as a single reply, as a buffered batch
// with failed items among them, and as NDJSON lines, against encoding/json
// over the oracle structs.
func TestEncoderMatchesEncodingJSON(t *testing.T) {
	srv, dataset := testServer(t)
	var results []*core.Result
	var decoded []queryResponse
	for _, step := range journey(dataset) {
		res, err := srv.cache.Execute(step.pattern, step.qt)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		results = append(results, res)
		decoded = append(decoded, toQueryResponse(res))
	}
	checkJourneyClasses(t, decoded)
	results = append(results, syntheticResults()...)

	for i, res := range results {
		for _, indent := range []bool{true, false} {
			got := encoded(indent, func(e *encoder) { e.result(res) })
			if want := mustMarshal(t, toQueryResponse(res), indent); got != want {
				t.Fatalf("result %d, indent %v:\n got %s\nwant %s", i, indent, got, want)
			}
		}
	}

	// A batch: every result, interleaved with failed items whose messages
	// need each kind of escaping encoding/json applies, and one outcome
	// with neither error nor result.
	messages := []string{
		`bad graph: graph: parse error at line 1: unknown directive "nonsense"`,
		"tab\tnewline\nbackslash\\ bell\a",
		"<script>&amp;</script>",
		"caf\u00e9 \u2028 \u2029 \U0001F600",
		"invalid \xff\xfe utf-8",
		"plain words only",
	}
	var outcomes []outcome
	for i, res := range results {
		outcomes = append(outcomes, outcome{res: res}, outcome{err: messages[i%len(messages)]})
	}
	outcomes = append(outcomes, outcome{})
	for _, indent := range []bool{true, false} {
		oracle := batchResponse{Workers: 4}
		for i, o := range outcomes {
			oracle.Results = append(oracle.Results, toBatchItem(i, o))
		}
		got := encoded(indent, func(e *encoder) { e.batch(outcomes, 4) })
		if want := mustMarshal(t, oracle, indent); got != want {
			t.Fatalf("batch, indent %v:\n got %s\nwant %s", indent, got, want)
		}
	}
	for i, o := range outcomes {
		// The stream wrote each line with json.Encoder.Encode.
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(toBatchItem(i, o)); err != nil {
			t.Fatal(err)
		}
		if got := encoded(false, func(e *encoder) { e.item(i, o) }) + "\n"; got != want.String() {
			t.Fatalf("stream item %d:\n got %s\nwant %s", i, got, want.String())
		}
	}

	for _, f := range []float64{0, 1, 1.74, 1.0 / 3, 75.0 / 43, 1e-6, 9.99e-7, 1e-7, 1.5e-10, 1e20, 1e21, 1.5e300, -2.5, -1e-9, 5001} {
		if got, want := encoded(false, func(e *encoder) { e.float(f) }), mustMarshal(t, f, false); got != want {
			t.Errorf("float %g: got %s, want %s", f, got, want)
		}
	}
}

// TestQueryRepliesAreCanonical is the byte-identity proof at the three
// endpoints: each reply, decoded into the oracle structs and marshalled
// back the way the endpoint used to marshal, is the reply — so its layout
// is encoding/json's for its content, whatever the content. The content
// is checked for the classes the journey must produce and, batch against
// single, for agreement.
func TestQueryRepliesAreCanonical(t *testing.T) {
	srv, dataset := testServer(t)
	steps := journey(dataset)
	post := func(path, body string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body.String())
		}
		return rec
	}
	typeName := map[ftv.QueryType]string{ftv.Subgraph: "subgraph", ftv.Supergraph: "supergraph"}
	// What the frozen benchmark harness scans replies for.
	marks := map[string][2]bool{"miss": {false, true}, "sub": {false, false}, "super": {false, false}, "exact": {true, false}, "empty": {false, true}, "empty super": {false, true}}
	var queries []map[string]string
	var singles []queryResponse
	for _, step := range steps {
		q := map[string]string{"graph": graphText(t, step.pattern), "type": typeName[step.qt]}
		queries = append(queries, q)
		rec := post("/api/query", mustMarshal(t, q, false))
		reply := rec.Body.String()
		var got queryResponse
		if err := json.Unmarshal([]byte(reply), &got); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if want := mustMarshal(t, got, true) + "\n"; reply != want {
			t.Fatalf("%s reply is not MarshalIndent's:\n got %s\nwant %s", step.name, reply, want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(reply)) || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: Content-Length %q for %d bytes, Content-Type %q", step.name, cl, len(reply), rec.Header().Get("Content-Type"))
		}
		if want := marks[step.name]; strings.Contains(reply, `"exactHit": true`) != want[0] || strings.Contains(reply, `"hits": []`) != want[1] {
			t.Errorf("%s: the harness's marks read wrong in %s", step.name, reply)
		}
		singles = append(singles, got)
	}
	checkJourneyClasses(t, singles)

	// The same queries as a batch, with a malformed one and one of an
	// unknown type among them: by now every pattern that has answers is
	// cached, so the answers must be the single endpoint's.
	queries = append(queries, map[string]string{"graph": "t # 0\nv 0 <1>\n"}, map[string]string{"graph": "t # 0\nv 0 1\n", "type": "sideways"})
	body := mustMarshal(t, map[string]any{"queries": queries, "workers": 2}, false)
	rec := post("/api/query/batch", body)
	reply := rec.Body.String()
	var batch batchResponse
	if err := json.Unmarshal([]byte(reply), &batch); err != nil {
		t.Fatal(err)
	}
	if want := mustMarshal(t, batch, true) + "\n"; reply != want {
		t.Fatalf("batch reply is not MarshalIndent's:\n got %s\nwant %s", reply, want)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(reply)) {
		t.Errorf("batch: Content-Length %q for %d bytes", cl, len(reply))
	}
	if len(batch.Results) != len(queries) || batch.Workers != 2 {
		t.Fatalf("batch: %d results, %d workers", len(batch.Results), batch.Workers)
	}
	for i, item := range batch.Results {
		switch {
		case item.Index != i:
			t.Errorf("batch item %d: index %d", i, item.Index)
		case i >= len(steps):
			if item.Error == "" || item.Query != nil {
				t.Errorf("batch item %d: want an error, got %+v", i, item)
			}
		case item.Error != "" || item.Query == nil || !answersEqual(item.Query.Answers, singles[i].Answers):
			t.Errorf("batch item %d (%s): %+v, single endpoint answered %v", i, steps[i].name, item, singles[i].Answers)
		}
	}

	lines := strings.SplitAfter(post("/api/query/batch?stream=1", body).Body.String(), "\n")
	if len(lines) != len(queries)+1 || lines[len(queries)] != "" {
		t.Fatalf("stream: %d lines for %d queries", len(lines)-1, len(queries))
	}
	seen := make([]bool, len(queries))
	for _, line := range lines[:len(queries)] {
		var item batchItem
		if err := json.Unmarshal([]byte(line), &item); err != nil {
			t.Fatalf("stream line %q: %v", line, err)
		}
		if want := mustMarshal(t, item, false) + "\n"; line != want {
			t.Fatalf("stream line is not Marshal's:\n got %s\nwant %s", line, want)
		}
		if item.Index < 0 || item.Index >= len(queries) || seen[item.Index] {
			t.Fatalf("stream: index %d out of range or repeated", item.Index)
		}
		seen[item.Index] = true
		if want := batch.Results[item.Index]; item.Error != want.Error || (item.Query == nil) != (want.Query == nil) ||
			(item.Query != nil && !answersEqual(item.Query.Answers, want.Query.Answers)) {
			t.Errorf("stream item %d differs from the buffered batch's: %+v vs %+v", item.Index, item, want)
		}
	}
}

// TestBufferReadFrom: the pooled body reader returns exactly the bytes,
// across the growth steps, and passes a read error through.
func TestBufferReadFrom(t *testing.T) {
	for _, size := range []int{0, 1, 4095, 4096, 4097, 70_000} {
		want := bytes.Repeat([]byte("0123456789abcdef"), size/16+1)[:size]
		buf := getBuffer()
		if err := buf.readFrom(bytes.NewReader(want)); err != nil || !bytes.Equal(buf.b, want) {
			t.Errorf("size %d: read %d bytes, %v", size, len(buf.b), err)
		}
		putBuffer(buf)
	}
	boom := errors.New("boom")
	buf := getBuffer()
	defer putBuffer(buf)
	if err := buf.readFrom(failingReader{boom}); err != boom {
		t.Errorf("read error = %v, want %v", err, boom)
	}
}

type failingReader struct{ err error }

func (r failingReader) Read(p []byte) (int, error) { return copy(p, "xy"), r.err }
