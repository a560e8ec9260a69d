package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphcache/internal/bitset"
	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

// TestConcurrentMixedTraffic hammers one cache from many goroutines with
// mixed traffic — Execute (both semantics, small capacity so evictions
// churn constantly), batch submission, stat/entry/byte reads and state
// snapshots — and then cross-checks every answer against the uncached
// method. Run under -race this is the kernel's data-race gauntlet: every
// lock transition gets exercised while window turns and evictions
// rearrange the resident list and republish its view underfoot.
func TestConcurrentMixedTraffic(t *testing.T) {
	dataset := testDataset(71, 30)
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Capacity = 12 // tiny: force eviction churn
		cfg.Window = 4
		cfg.SelfCheck = false // checked explicitly below, off the hot path
	})

	w, err := gen.NewWorkload(rand.New(rand.NewSource(72)), dataset, gen.WorkloadConfig{
		Size: 400, Mixed: true, PoolSize: 40,
		ZipfS: 1.3, ChainFrac: 0.5, ChainLen: 3, MinEdges: 3, MaxEdges: 10,
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 10
	type outcome struct {
		q   gen.Query
		res *Result
	}
	outcomes := make(chan outcome, len(w.Queries))
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(w.Queries); i += workers {
				q := w.Queries[i]
				res, err := c.Execute(q.G, q.Type)
				if err != nil {
					t.Errorf("worker %d query %d: %v", g, i, err)
					return
				}
				outcomes <- outcome{q, res}
				// Interleave reads with the query traffic.
				switch i % 5 {
				case 0:
					c.Len()
				case 1:
					c.Stats()
				case 2:
					for _, e := range c.Entries() {
						_ = e.Answers().Count()
					}
				case 3:
					c.Bytes()
				case 4:
					c.WindowLen()
				}
			}
		}(g)
	}
	// Two more goroutines stress the structural paths: state snapshots and
	// full snapshot/restore cycles racing the query traffic.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := c.WriteState(io.Discard); err != nil {
				t.Errorf("WriteState: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			var buf bytes.Buffer
			if err := c.WriteState(&buf); err != nil {
				t.Errorf("WriteState: %v", err)
				return
			}
			if err := c.ReadState(&buf); err != nil {
				t.Errorf("ReadState: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(outcomes)

	// Every concurrently produced answer set must equal the uncached
	// method's — concurrency must never cost exactness.
	checked := 0
	for o := range outcomes {
		base := c.Method().Run(o.q.G, o.q.Type)
		if !base.Answers.Equal(o.res.Answers) {
			t.Fatalf("concurrent answer diverges from base for %s query %v", o.q.Type, o.q.G)
		}
		checked++
	}
	if checked != len(w.Queries) {
		t.Fatalf("checked %d outcomes, want %d", checked, len(w.Queries))
	}
	snap := c.Stats()
	if snap.Queries != int64(len(w.Queries)) {
		t.Errorf("monitor queries = %d, want %d", snap.Queries, len(w.Queries))
	}
	if c.Len() > 12 {
		t.Errorf("capacity exceeded: %d entries resident, capacity 12", c.Len())
	}
}

// TestConcurrentWindowTurns is the Window Manager's race gauntlet: at
// Window 1 every admission is a stop-the-world turn, so eight goroutines
// of misses turn the window constantly while exact probes, Len and Bytes,
// Entries and a dataset writer race them. SelfCheck verifies every answer
// against the uncached method inside the query's own dataset snapshot.
func TestConcurrentWindowTurns(t *testing.T) {
	const capacity = 10 // tiny: every turn also evicts
	dataset := testDataset(61, 30)
	extra := testDataset(65, 6)
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Capacity = capacity
		cfg.Window = 1
	})
	w, err := gen.NewWorkload(rand.New(rand.NewSource(62)), dataset, gen.WorkloadConfig{
		Size: 320, Mixed: true, PoolSize: 320, // every pattern issued once: misses dominate
		ChainFrac: 0.5, ChainLen: 3, MinEdges: 3, MaxEdges: 10,
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(w.Queries); i += workers {
				q := w.Queries[i]
				if _, err := c.Execute(q.G, q.Type); err != nil {
					t.Errorf("worker %d query %d: %v", g, i, err)
					return
				}
				switch i % 3 {
				case 0:
					// Exact probe of a query admitted moments ago (or already
					// evicted again — either is fine, both race the turns).
					p := w.Queries[max(i-workers, 0)]
					if _, err := c.Execute(p.G, p.Type); err != nil {
						t.Errorf("worker %d probe %d: %v", g, i, err)
						return
					}
				case 1:
					c.Len()
					c.Bytes()
				case 2:
					for _, e := range c.Entries() {
						_ = e.Answers().Count()
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, g := range extra {
			gid, err := c.AddGraph(g)
			if err != nil {
				t.Errorf("AddGraph: %v", err)
				return
			}
			if err := c.RemoveGraph(gid - len(extra)); err != nil {
				t.Errorf("RemoveGraph: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if c.Len() > capacity {
		t.Errorf("capacity exceeded: %d entries resident, capacity %d", c.Len(), capacity)
	}
	snap := c.Stats()
	if snap.WindowTurns != snap.Admissions || snap.WindowTurns == 0 {
		t.Errorf("%d window turns, %d admissions: want one turn per admission", snap.WindowTurns, snap.Admissions)
	}
	if snap.Evictions == 0 || snap.DatasetAdds != int64(len(extra)) {
		t.Errorf("workload too tame: %d evictions, %d dataset adds", snap.Evictions, snap.DatasetAdds)
	}
	if c.WindowLen() != 0 {
		t.Errorf("%d entries still pending at Window 1", c.WindowLen())
	}
	turnNow(c) // a trailing hit or Entries read may have reconciled a set since the last turn
	checkResidency(t, c, "after the run")
}

// TestExactProbeTakesNoLock pins the lock-free exact probe: once a window
// turn has admitted an entry, re-issuing its query (as a fresh, isomorphic
// graph) is an exact hit even while mu is held — the probe reads the
// published view, and serving the hit writes only the entry's credit
// cell. Len, Bytes and Stats read atomics and need no lock either.
func TestExactProbeTakesNoLock(t *testing.T) {
	dataset := testDataset(66, 20)
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Window = 1 // the first query's append turns the window
		cfg.SelfCheck = false
	})
	pattern := func() *graph.Graph {
		return gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(67)), dataset[0], 4)
	}
	if _, err := c.Execute(pattern(), ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 || c.WindowLen() != 0 {
		t.Fatalf("%d admitted, %d pending: want the turn to admit the query", c.Len(), c.WindowLen())
	}

	c.mu.Lock()
	defer c.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		res, err := c.Execute(pattern(), ftv.Subgraph)
		if err == nil && !res.ExactHit {
			err = errors.New("re-issued query was not an exact hit")
		}
		c.Len()
		c.Bytes()
		c.Stats()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("exact hit or a Len/Bytes/Stats read blocked while mu was held: it takes a lock")
	}
}

// TestReconciliationHoldsNoMu: Entries, the reader that needs every
// entry current, reconciles stale entries before it takes mu, and a
// restore re-runs its patterns before it does, so no containment test
// runs while every miss is blocked; the snapshot writer records no
// answers and runs no test at all. The method's verifier counts the tests
// it is called for, and those it is called for with mu held.
func TestReconciliationHoldsNoMu(t *testing.T) {
	dataset := testDataset(76, 12)
	var c *Cache
	var tests, underMu atomic.Int64
	var probe sync.Mutex // a restore's workers probe at once: one's TryLock must not read as another's held mu
	verify := func(pattern, target *graph.Graph) bool {
		tests.Add(1)
		probe.Lock()
		if muHeld(c) {
			underMu.Add(1)
		}
		probe.Unlock()
		return iso.SubIso(pattern, target)
	}
	cfg := DefaultConfig()
	cfg.Window = 1 // every query is admitted by its own turn
	cfg.SelfCheck = true
	c = MustNew(ftv.NewMethod("ggsx/counting", dataset, ftv.NewGGSX(dataset, 3), verify), cfg)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 6; i++ {
		if _, err := c.Execute(gen.ExtractConnectedSubgraph(rng, dataset[i], 4), ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
	var state bytes.Buffer
	for i, r := range []struct {
		name  string
		tests bool // whether the read owes containment tests
		read  func() error
	}{
		{"WriteState", false, func() error { return c.WriteState(&state) }},
		{"Entries", true, func() error { c.Entries(); return nil }},
		{"ReadState", true, func() error { return c.ReadState(&state) }},
	} {
		// Copies of two patterns' source graphs: those entries pass their
		// screens, so a reader that brings them forward has tests to run.
		for _, g := range dataset[2*i : 2*i+2] {
			if _, err := c.AddGraph(g); err != nil {
				t.Fatal(err)
			}
		}
		before := tests.Load()
		if err := r.read(); err != nil {
			t.Fatal(err)
		}
		if ran := tests.Load() > before; ran != r.tests {
			t.Fatalf("%s ran containment tests: %v, want %v", r.name, ran, r.tests)
		}
		if n := underMu.Load(); n > 0 {
			t.Fatalf("%s: %d containment tests ran with mu held", r.name, n)
		}
	}
}

// TestQueryPathHoldsNoMu: a query runs no containment test and no Method
// M filter under mu — not a miss's verification, not the reconciliation a
// stale sub/super hit is brought forward by, not the filter. The method's
// verifier (and, in the probed-filter run, its filter) counts the calls
// it gets while mu is held; the stream is sequential, so a held mu can
// only be the query's own. The probed filter is not a *ftv.GGSX, so that
// run's views have no trie and screen hits by feature vector alone; the
// ggsx run is the path production takes, trie rows and all.
func TestQueryPathHoldsNoMu(t *testing.T) {
	dataset := testDataset(78, 12)
	for _, filtered := range []struct {
		name   string
		filter func(probe func()) ftv.Filter
	}{
		{"probed-filter", func(probe func()) ftv.Filter { return probedFilter{ftv.NewGGSX(dataset, 3), probe} }},
		{"ggsx", func(func()) ftv.Filter { return ftv.NewGGSX(dataset, 3) }},
	} {
		t.Run(filtered.name, func(t *testing.T) {
			var c *Cache
			var calls, underMu atomic.Int64
			probe := func() {
				calls.Add(1)
				if muHeld(c) {
					underMu.Add(1)
				}
			}
			verify := func(pattern, target *graph.Graph) bool {
				probe()
				return iso.SubIso(pattern, target)
			}
			cfg := DefaultConfig()
			cfg.Window = 1 // every miss is admitted by its own turn
			c = MustNew(ftv.NewMethod("ggsx/probed", dataset, filtered.filter(probe), verify), cfg)
			run := func(q *graph.Graph) {
				t.Helper()
				if _, err := c.Execute(q, ftv.Subgraph); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(79))
			var parts []*graph.Graph
			for i := 0; i < 6; i++ {
				whole := gen.ExtractConnectedSubgraph(rng, dataset[i], 6)
				run(whole) // a miss
				parts = append(parts, gen.ExtractConnectedSubgraph(rng, whole, 3))
			}
			// Copies of dataset graphs: every entry is now behind the
			// view, and the ones they contain have containment tests to
			// run.
			for _, g := range dataset[:4] {
				if _, err := c.AddGraph(g); err != nil {
					t.Fatal(err)
				}
			}
			before := c.Stats()
			for _, q := range parts {
				run(q) // a sub hit on the stale pattern it was cut from
			}
			after := c.Stats()
			if after.SubHits == before.SubHits {
				t.Fatal("no sub hit: the stream exercised no hit path")
			}
			if after.MaintenanceTests == before.MaintenanceTests {
				t.Fatal("no hit was brought forward on the query path")
			}
			if calls.Load() == 0 {
				t.Fatal("the probed verifier and filter were never called")
			}
			if n := underMu.Load(); n > 0 {
				t.Fatalf("%d of %d containment tests and filter runs happened with mu held", n, calls.Load())
			}
		})
	}
}

// muHeld reports whether anyone holds c.mu: the probe of the HoldsNoMu
// tests, whose readers run alone, so a held mu can only be their own.
func muHeld(c *Cache) bool {
	if c.mu.TryLock() {
		c.mu.Unlock()
		return false
	}
	return true
}

// probedFilter is an insertable filter that calls probe on every
// Candidates call, and whose inserts are probed too.
type probedFilter struct {
	ftv.Filter
	probe func()
}

func (f probedFilter) Candidates(q *graph.Graph, qt ftv.QueryType) *bitset.Set {
	f.probe()
	return f.Filter.Candidates(q, qt)
}

func (f probedFilter) WithGraph(gid int, g *graph.Graph) ftv.Filter {
	return probedFilter{f.Filter.WithGraph(gid, g), f.probe}
}

// TestConcurrentExecuteAll drives the batched worker-pool API concurrently
// from several submitting goroutines (each batch spawning its own pool) —
// the server's /api/query/batch shape.
func TestConcurrentExecuteAll(t *testing.T) {
	dataset := testDataset(81, 25)
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Capacity = 16
		cfg.Window = 4
		cfg.SelfCheck = false
	})
	w, err := gen.NewWorkload(rand.New(rand.NewSource(82)), dataset, gen.WorkloadConfig{
		Size: 60, Mixed: true, PoolSize: 20,
		ZipfS: 1.2, ChainFrac: 0.5, ChainLen: 3, MinEdges: 3, MaxEdges: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, len(w.Queries))
	for i, q := range w.Queries {
		reqs[i] = Request{Graph: q.G, Type: q.Type}
	}

	var wg sync.WaitGroup
	for b := 0; b < 4; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs := c.ExecuteAll(context.Background(), reqs, 4)
			for i, o := range outs {
				if o.Err != nil {
					t.Errorf("batch query %d: %v", i, o.Err)
					return
				}
				base := c.Method().Run(reqs[i].Graph, reqs[i].Type)
				if !base.Answers.Equal(o.Result.Answers) {
					t.Errorf("batch query %d: answers diverge", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := c.Stats().Queries, int64(4*len(reqs)); got != want {
		t.Errorf("monitor queries = %d, want %d", got, want)
	}
}

// TestExecuteAllSequentialFallback pins the workers<2 path: a pool of one,
// in-order execution with positional outcomes.
func TestExecuteAllSequentialFallback(t *testing.T) {
	dataset := testDataset(91, 15)
	c := testCache(t, dataset, nil)
	reqs := []Request{
		{Graph: dataset[0], Type: ftv.Subgraph},
		{Graph: nil, Type: ftv.Subgraph}, // must fail positionally
		{Graph: dataset[1], Type: ftv.Supergraph},
	}
	outs := c.ExecuteAll(context.Background(), reqs, 1)
	if len(outs) != 3 {
		t.Fatalf("got %d outcomes", len(outs))
	}
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Errorf("valid queries errored: %v, %v", outs[0].Err, outs[2].Err)
	}
	if outs[1].Err == nil {
		t.Error("nil graph should error")
	}
	if outs[0].Result == nil || outs[2].Result == nil {
		t.Error("valid queries missing results")
	}
}

// TestMutationWaitsForNoQuery: a miss blocked in the middle of its
// verification holds up neither AddGraph nor RemoveGraph, and once
// released still answers exactly for the dataset view it pinned.
func TestMutationWaitsForNoQuery(t *testing.T) {
	dataset := testDataset(158, 12)
	entered, release := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	verify := func(pattern, target *graph.Graph) bool {
		if armed.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
		return iso.SubIso(pattern, target)
	}
	cfg := DefaultConfig()
	cfg.SelfCheck = true
	c := MustNew(ftv.NewMethod("ggsx/blocking", dataset, ftv.NewGGSX(dataset, 3), verify), cfg)
	q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(159)), dataset[2], 4)
	before := c.Method().View()

	armed.Store(true)
	type outcome struct {
		res *Result
		err error
	}
	queried := make(chan outcome, 1)
	go func() {
		res, err := c.Execute(q, ftv.Subgraph)
		queried <- outcome{res, err}
	}()
	<-entered
	mutated := make(chan error, 1)
	go func() {
		_, err := c.AddGraph(dataset[2])
		if err == nil {
			err = c.RemoveGraph(2)
		}
		mutated <- err
	}()
	select {
	case err := <-mutated:
		close(release)
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("AddGraph or RemoveGraph waited for a query in flight")
	}
	out := <-queried
	if out.err != nil {
		t.Fatal(out.err)
	}
	if want := before.Run(q, ftv.Subgraph).Answers; !out.res.Answers.Equal(want) || !want.Contains(2) {
		t.Fatalf("answers %v, want %v: exact for the view the query pinned", out.res.Answers, want)
	}
}

// TestMutationTakesNoCacheLock: with mu held, AddGraph and RemoveGraph
// still complete.
func TestMutationTakesNoCacheLock(t *testing.T) {
	dataset := testDataset(156, 12)
	c := testCache(t, dataset, func(cfg *Config) { cfg.Window = 1 })
	if _, err := c.Execute(gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(157)), dataset[0], 4), ftv.Subgraph); err != nil {
		t.Fatal(err)
	}

	c.mu.Lock()
	done := make(chan error, 1)
	go func() {
		gid, err := c.AddGraph(dataset[0])
		if err == nil {
			err = c.RemoveGraph(gid)
		}
		if err == nil {
			err = c.RemoveGraph(1)
		}
		done <- err
	}()
	select {
	case err := <-done:
		c.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		c.mu.Unlock()
		t.Fatal("a mutation blocked while mu was held: it takes the cache lock")
	}
}

// TestStaleViewReaderSkipsAheadEntry: a reader whose view predates a
// removal meets an entry that a newer reader has already brought past
// that view — as its exact match, and as a pruning hit — and still
// answers exactly for its own view, treating the entry as absent.
func TestStaleViewReaderSkipsAheadEntry(t *testing.T) {
	dataset := testDataset(151, 12)
	c := testCache(t, dataset, func(cfg *Config) { cfg.Window = 1 })
	rng := rand.New(rand.NewSource(152))
	const g = 3
	big := gen.ExtractConnectedSubgraph(rng, dataset[g], 7)
	small := gen.ExtractConnectedSubgraph(rng, big, 3)
	if _, err := c.Execute(small, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	e := c.Entries()[0]
	old := c.Method().View()
	if err := c.RemoveGraph(g); err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(small, ftv.Subgraph) // the newer reader
	if err != nil {
		t.Fatal(err)
	}
	if !res.ExactHit || e.ans.p.Load().removals != old.Removals()+1 {
		t.Fatal("the newer reader did not bring the entry past the old view; the scenario did not arm")
	}

	for _, q := range []*graph.Graph{small, big} {
		res, err := c.execute(old, q, ftv.Subgraph)
		if err != nil {
			t.Fatal(err)
		}
		if want := old.Run(q, ftv.Subgraph).Answers; !res.Answers.Equal(want) || !want.Contains(g) {
			t.Fatalf("stale reader answers %v, want %v", res.Answers, want)
		}
		for _, h := range res.Hits {
			if h.EntryID == e.ID {
				t.Fatalf("stale reader used the entry ahead of its view as a %v hit", h.Kind)
			}
		}
	}
}

// TestTurnMaskServesOlderView: a window turn over a newer view masks an
// entry's removals without testing the additions since, and a reader
// whose view has those removals but not the additions still exact-hits
// the entry: the masked set is exact for its view.
func TestTurnMaskServesOlderView(t *testing.T) {
	dataset := testDataset(158, 12)
	c := testCache(t, dataset, func(cfg *Config) { cfg.Window = 1 })
	q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(159)), dataset[4], 4)
	if _, err := c.Execute(q, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	e := c.Entries()[0]
	if err := c.RemoveGraph(4); err != nil {
		t.Fatal(err)
	}
	old := c.Method().View()
	if _, err := c.AddGraph(dataset[4]); err != nil {
		t.Fatal(err)
	}
	turnNow(c)
	if a := e.ans.p.Load(); a.removals != old.Removals() || a.set.Len() != old.Size() {
		t.Fatal("the turn did not mask the entry's removal alone; the scenario did not arm")
	}
	res, err := c.execute(old, q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if want := old.Run(q, ftv.Subgraph).Answers; !res.ExactHit || !res.Answers.Equal(want) {
		t.Fatalf("exact=%v answers %v, want an exact hit answering %v", res.ExactHit, res.Answers, want)
	}
}

// TestRestoreDuringChurn: a restore runs while AddGraph, RemoveGraph and
// queries do (SelfCheck holds every query to Method.Run). The restore
// re-runs its patterns on its own workers, none of which is still testing
// once ReadState returns, and afterwards every entry answers what
// Method.Run answers on the current view. The verifier tells a restore
// worker's tests by the worker's frame on the calling goroutine's stack,
// and slows them, so a worker left running would be seen.
func TestRestoreDuringChurn(t *testing.T) {
	dataset := testDataset(171, 24)
	var inRestore, restoreTests atomic.Int64
	verify := func(pattern, target *graph.Graph) bool {
		buf := make([]byte, 8192)
		if bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("(*Cache).restore.func")) {
			inRestore.Add(1)
			defer inRestore.Add(-1)
			restoreTests.Add(1)
			time.Sleep(20 * time.Microsecond)
		}
		return iso.SubIso(pattern, target)
	}
	cfg := DefaultConfig()
	cfg.Window = 2
	cfg.SelfCheck = true
	c := MustNew(ftv.NewMethod("ggsx/restore-probe", dataset, ftv.NewGGSX(dataset, 3), verify), cfg)
	rng := rand.New(rand.NewSource(172))
	var pool []*graph.Graph
	for i := 0; i < 16; i++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[i], 3+i%4)
		pool = append(pool, q)
		if _, err := c.Execute(q, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
	var state bytes.Buffer
	if err := c.WriteState(&state); err != nil {
		t.Fatal(err)
	}
	if c.Len() == 0 {
		t.Fatal("no admitted entries to restore")
	}

	stop := make(chan struct{})
	errs := make(chan error, 3)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(173))
		for i := 0; i < 400; i++ {
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
			if _, err := c.AddGraph(dataset[r.Intn(len(dataset))]); err != nil {
				errs <- err
				return
			}
			if view := c.Method().View(); view.LiveCount() > len(dataset)/2 {
				if gid := r.Intn(view.Size()); view.Graph(gid) != nil {
					if err := c.RemoveGraph(gid); err != nil {
						errs <- err
						return
					}
				}
			}
		}
	}()
	for w := range 2 {
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(174 + int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Execute(pool[r.Intn(len(pool))], ftv.QueryType(r.Intn(2))); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for round := 0; round < 3; round++ {
		before := restoreTests.Load()
		err := c.ReadState(bytes.NewReader(state.Bytes()))
		running, ran := inRestore.Load(), restoreTests.Load()
		time.Sleep(5 * time.Millisecond)
		switch {
		case err != nil:
			t.Error(err)
		case ran == before:
			t.Error("the restore ran no containment test: the probe did not arm")
		case running != 0 || restoreTests.Load() != ran:
			t.Errorf("restore workers still testing after ReadState returned (%d in flight)", running)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	view := c.Method().View()
	for _, e := range c.Entries() {
		if want := view.Run(e.Graph, e.Type).Answers; !e.Answers().Equal(want) {
			t.Fatalf("entry %d answers %v, Method.Run %v", e.ID, e.Answers(), want)
		}
	}
}
