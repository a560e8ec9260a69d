package core

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"graphcache/internal/ftv"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

// gateStar builds a star graph with the given number of leaves — distinct
// sizes give distinct (never exact-hitting) queries.
func gateStar(leaves int) *graph.Graph {
	labels := make([]graph.Label, leaves+1)
	labels[0] = 1
	edges := make([][2]int, leaves)
	for i := 1; i <= leaves; i++ {
		labels[i] = graph.Label(1 + i%3)
		edges[i-1] = [2]int{0, i}
	}
	return graph.MustNew(labels, edges)
}

// gateCache builds a cache over a single-graph dataset with the given
// dataset verifier, plus 8 distinct star queries. NoFilter guarantees
// every query runs the verifier exactly once (the dataset has one graph,
// nothing is admitted within the default window, so no hit ever shrinks
// the candidate set).
func gateCache(t *testing.T, verify ftv.VerifierFunc) (*Cache, []Request) {
	t.Helper()
	dataset := []*graph.Graph{gateStar(9)}
	method := ftv.NewMethod("gated/vf2", dataset, ftv.NewNoFilter(len(dataset)), verify)
	cfg := DefaultConfig()
	c := MustNew(method, cfg)
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Graph: gateStar(i + 1), Type: ftv.Subgraph}
	}
	return c, reqs
}

// TestStreamContextCancelledUpfront: a context cancelled before the call
// dispatches nothing at all, and ExecuteAll reports the context's error
// for every query it kept from running.
func TestStreamContextCancelledUpfront(t *testing.T) {
	c, reqs := gateCache(t, nil) // default VF2, never blocks
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		n := 0
		for range c.ExecuteAllStream(ctx, reqs, workers) {
			n++
		}
		if n != 0 {
			t.Fatalf("workers=%d: %d outcomes from a cancelled context", workers, n)
		}
		for i, o := range c.ExecuteAll(ctx, reqs, workers) {
			if o.Result != nil || o.Err != context.Canceled {
				t.Fatalf("workers=%d: outcome %d = %+v, want Err context.Canceled", workers, i, o)
			}
		}
	}
	if got := c.Stats().Queries; got != 0 {
		t.Fatalf("%d queries executed despite cancelled context", got)
	}
}

// TestStreamContextStopsSequentialDispatch: cancelling mid-batch on a
// pool of one stops after the in-flight query — the remaining ones never
// reach the cache.
func TestStreamContextStopsSequentialDispatch(t *testing.T) {
	gate := make(chan struct{})
	ready := make(chan struct{}, 16)
	c, reqs := gateCache(t, func(pattern, target *graph.Graph) bool {
		ready <- struct{}{}
		<-gate
		return iso.SubIso(pattern, target)
	})
	ctx, cancel := context.WithCancel(context.Background())
	out := c.ExecuteAllStream(ctx, reqs, 1)
	<-ready // query 0 is inside its verifier
	cancel()
	gate <- struct{}{} // release query 0; later queries must not start
	var outcomes []StreamOutcome
	for so := range out {
		outcomes = append(outcomes, so)
	}
	if len(outcomes) != 1 || outcomes[0].Index != 0 {
		t.Fatalf("outcomes %v, want exactly query 0", outcomes)
	}
	if got := c.Stats().Queries; got != 1 {
		t.Fatalf("%d queries executed, want 1", got)
	}
}

// TestStreamContextStopsWorkerDispatch: cancelling mid-batch on the
// worker-pool path lets the in-flight queries finish and dispatches no
// more.
func TestStreamContextStopsWorkerDispatch(t *testing.T) {
	gate := make(chan struct{})
	ready := make(chan struct{}, 16)
	c, reqs := gateCache(t, func(pattern, target *graph.Graph) bool {
		ready <- struct{}{}
		<-gate
		return iso.SubIso(pattern, target)
	})
	ctx, cancel := context.WithCancel(context.Background())
	out := c.ExecuteAllStream(ctx, reqs, 2)
	// Both workers are inside their verifiers, unless one is blocked
	// before its verifier (on a lock the other holds, say): then release
	// everything and fail rather than hang.
	for i := 0; i < 2; i++ {
		select {
		case <-ready:
		case <-time.After(5 * time.Second):
			cancel()
			close(gate)
			for range out {
			}
			t.Fatalf("%d of 2 workers reached their verifiers; the other is blocked before it", i)
		}
	}
	cancel()
	close(gate) // release everything that ever blocks
	n := 0
	for range out {
		n++
	}
	if n != 2 {
		t.Fatalf("%d outcomes after cancelling with 2 in flight, want 2", n)
	}
	if got := c.Stats().Queries; got != 2 {
		t.Fatalf("%d queries executed, want 2", got)
	}
}

// TestStreamContextDropsOutcomeNobodyReads: once the consumer has
// cancelled, a worker whose outcome finds the buffer full drops it rather
// than wait for a reader, so an abandoned batch never pins its workers.
// Nothing is read until the one worker has begun the query after the
// four the buffer holds, the context is cancelled and the pool has
// exited; then the buffered four are all the channel delivers. A worker
// that waited for a reader would deliver a fifth.
func TestStreamContextDropsOutcomeNobodyReads(t *testing.T) {
	c, reqs := gateCache(t, nil) // default VF2, never blocks
	idle := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	out := c.ExecuteAllStream(ctx, reqs, 1)
	buffered := cap(out)
	for start := time.Now(); c.Stats().Queries <= int64(buffered); time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("the worker never began a query past the full buffer")
		}
	}
	cancel()
	for start := time.Now(); runtime.NumGoroutine() > idle && time.Since(start) < 5*time.Second; {
		time.Sleep(time.Millisecond)
	}
	n := 0
	for range out {
		n++
	}
	if n != buffered {
		t.Fatalf("%d outcomes from a cancelled batch whose buffer of %d was full: the worker waited for a reader", n, buffered)
	}
}

// TestNoRootContext: the kernel and the server mint no root context.
// Every operation that can block or fan out inherits its caller's
// context, so a client disconnect or a shutdown deadline reaches batch
// execution. A context.Background or context.TODO in either package's
// code cuts that chain, sometimes where no behaviour shows it (a select
// arm that only matters once the context is cancelled), so this test
// reads the source.
func TestNoRootContext(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../server"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files in %s: %v", dir, err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "context" && (sel.Sel.Name == "Background" || sel.Sel.Name == "TODO") {
					t.Errorf("%s: context.%s: take the caller's context instead", fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
}
