package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
)

// TestConcurrentMixedTraffic hammers one cache from many goroutines with
// mixed traffic — Execute (both semantics, small capacity so evictions
// churn constantly), batch submission, stat/entry/byte reads and state
// snapshots — and then cross-checks every answer against the uncached
// method. Run under -race this is the kernel's data-race gauntlet: every
// lock transition in the sharded engine gets exercised while window turns
// and evictions rearrange the shards underfoot.
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
// of misses turn the window constantly while exact probes, ShardStats,
// Entries and a dataset writer race them. SelfCheck verifies every answer
// against the uncached method inside the query's own dataset snapshot.
func TestConcurrentWindowTurns(t *testing.T) {
	const capacity = 10 // tiny: every turn also evicts
	dataset := testDataset(61, 30)
	extra := testDataset(65, 6)
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Capacity = capacity
		cfg.Window = 1
		cfg.Shards = 4
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
					c.ShardStats()
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
	checkResidency(t, c, "after the run")
}

// TestQueriesProceedUnderHeldPolicyMu pins that neither the exact probe
// nor staging takes policyMu (staging needs windowMu only). The test grabs
// policyMu and proves fresh misses still flow end to end (stage 1 exact
// scan, filtering, hit detection over the published index, verification,
// staging in the window) — and so does an exact hit, whose crediting is
// two atomics on the entry, folded into the policy later by a policyMu
// holder. Only sub/super hit crediting and window turns need policyMu, so
// the misses are distinct (no sub/super hits) and the window stays under
// its turn threshold.
func TestQueriesProceedUnderHeldPolicyMu(t *testing.T) {
	dataset := testDataset(63, 20)
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Window = 64 // far above the 8 queries below: no turn needed
		cfg.Shards = 4
		cfg.SelfCheck = false
	})
	rng := rand.New(rand.NewSource(64))
	first := gen.ExtractConnectedSubgraph(rng, dataset[0], 3)
	if _, err := c.Execute(first, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}

	c.policyMu.Lock()
	defer c.policyMu.Unlock()

	done := make(chan error, 1)
	go func() {
		for i := 1; i < 8; i++ {
			q := gen.ExtractConnectedSubgraph(rng, dataset[i], 3+i%4)
			if _, err := c.Execute(q, ftv.Subgraph); err != nil {
				done <- err
				return
			}
		}
		if res, err := c.Execute(first, ftv.Subgraph); err != nil || !res.ExactHit {
			done <- fmt.Errorf("re-issued query: exact=%v err=%v, want an exact hit", res != nil && res.ExactHit, err)
			return
		}
		// Reads that must not need policyMu either.
		c.Len()
		c.Bytes()
		c.WindowLen()
		c.Stats()
		c.ShardStats()
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("queries blocked while policyMu was held: a per-query path acquires it")
	}
	if got := c.WindowLen(); got != 8 {
		t.Errorf("staged %d entries, want 8", got)
	}
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
			outs := c.ExecuteAll(reqs, 4)
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

// TestExecuteAllSequentialFallback pins the workers<2 path: sequential,
// in-order execution with positional outcomes.
func TestExecuteAllSequentialFallback(t *testing.T) {
	dataset := testDataset(91, 15)
	c := testCache(t, dataset, nil)
	reqs := []Request{
		{Graph: dataset[0], Type: ftv.Subgraph},
		{Graph: nil, Type: ftv.Subgraph}, // must fail positionally
		{Graph: dataset[1], Type: ftv.Supergraph},
	}
	outs := c.ExecuteAll(reqs, 1)
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
