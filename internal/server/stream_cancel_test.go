package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphcache/internal/core"
	"graphcache/internal/ftv"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

// TestStreamBatchClientDisconnect: when an NDJSON batch client drops the
// connection, the request context cancels and the kernel stops
// dispatching the remaining queries instead of executing the whole batch
// for nobody. The first outcome must reach the client over the live
// connection while the rest of the batch is still running: each line is
// flushed as it is written.
func TestStreamBatchClientDisconnect(t *testing.T) {
	b := newGatedBatch(t)
	// Fund exactly one verification: the response headers go out with the
	// first flushed outcome, so the token must be there before the request.
	b.gate <- struct{}{}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.ts.URL+"/api/query/batch?stream=1", strings.NewReader(b.body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil || !strings.Contains(line, `"index"`) {
		t.Fatalf("first stream line: %q, %v", line, err)
	}
	// Drop the connection mid-stream.
	resp.Body.Close()
	b.finish(t)
}

// TestBufferedBatchClientDisconnect is the same for the buffered batch
// endpoint, which answers only once the whole batch has run: the client
// drops the connection while the first query is inside its verifier.
func TestBufferedBatchClientDisconnect(t *testing.T) {
	b := newGatedBatch(t)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.ts.URL+"/api/query/batch", strings.NewReader(b.body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	<-b.entered
	cancel()
	<-done
	b.finish(t)
}

// gatedBatch is a server over a one-graph dataset whose verifier waits
// for a token on gate, and a batch body of gatedBatchSize distinct
// queries on one worker. NoFilter means exactly one verification per
// query, so calls counts the queries that ran. reqCtx hands the test the
// batch request's context, which the server cancels when the client
// disconnects.
type gatedBatch struct {
	ts      *httptest.Server
	body    string
	calls   atomic.Int64
	entered chan struct{}
	gate    chan struct{}
	reqCtx  chan context.Context
	release sync.Once
}

const gatedBatchSize = 8

func newGatedBatch(t *testing.T) *gatedBatch {
	star := func(leaves int) *graph.Graph {
		labels := make([]graph.Label, leaves+1)
		labels[0] = 1
		edges := make([][2]int, leaves)
		for i := 1; i <= leaves; i++ {
			labels[i] = graph.Label(1 + i%3)
			edges[i-1] = [2]int{0, i}
		}
		return graph.MustNew(labels, edges)
	}
	b := &gatedBatch{entered: make(chan struct{}, 64), gate: make(chan struct{}, 64), reqCtx: make(chan context.Context, 1)}
	verify := func(pattern, target *graph.Graph) bool {
		b.calls.Add(1)
		b.entered <- struct{}{}
		<-b.gate
		return iso.SubIso(pattern, target)
	}
	dataset := []*graph.Graph{star(9)}
	method := ftv.NewMethod("gated/vf2", dataset, ftv.NewNoFilter(len(dataset)), verify)
	c, err := core.New(method, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	api := New(c)
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.reqCtx <- r.Context()
		api.ServeHTTP(w, r)
	}))
	// On a failed test, release the verifiers before Close waits for the
	// handler.
	t.Cleanup(func() {
		b.open()
		b.ts.Close()
	})

	queries := make([]map[string]string, gatedBatchSize)
	for i := range queries {
		var sb strings.Builder
		if err := graph.WriteGraph(&sb, star(i+1)); err != nil {
			t.Fatal(err)
		}
		queries[i] = map[string]string{"graph": sb.String(), "type": "subgraph"}
	}
	body, _ := json.Marshal(map[string]any{"queries": queries, "workers": 1})
	b.body = string(body)
	return b
}

func (b *gatedBatch) open() { b.release.Do(func() { close(b.gate) }) }

// finish waits until the server has cancelled the request context,
// releases every verifier still waiting, waits for the handler to return
// and for the batch's workers to drain (calls stops moving), and fails
// unless the batch stopped within one query of the cancellation: the
// query parked in the verifier, or one that passed its dispatch check
// just before the cancel. While the gate is shut no further query can
// start, so a kernel the request context never reached runs on once the
// gate opens: through the outcome buffer (four per worker) and into a
// blocked send, or, while the handler still reads, through the batch.
func (b *gatedBatch) finish(t *testing.T) {
	t.Helper()
	select {
	case <-(<-b.reqCtx).Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the server never cancelled the disconnected request's context")
	}
	atCancel := b.calls.Load()
	b.open()
	b.ts.Close()
	got := b.calls.Load()
	for settled := time.Now(); time.Since(settled) < 300*time.Millisecond; {
		time.Sleep(20 * time.Millisecond)
		if n := b.calls.Load(); n != got {
			got, settled = n, time.Now()
		}
	}
	if got > atCancel+1 {
		t.Fatalf("client disconnected mid-batch with %d queries begun, but the verifier ran %d/%d times", atCancel, got, gatedBatchSize)
	}
	t.Logf("verifier ran %d/%d times; %d had begun at the disconnect", got, gatedBatchSize, atCancel)
}
