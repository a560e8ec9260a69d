package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

// The tests in this file hold the one-load discipline: a function that
// reads an atomically published value (an entry's answer cell, the
// published resident view, the method's dataset view) loads it once and
// works on that one value. Each runs the function in a loop while another
// goroutine keeps replacing the value, so a second load mid-function
// pairs parts of two different values, and checks every result against
// what any single value gives. A reader that loads once passes however
// the writer interleaves. One that loads twice is caught only while both
// goroutines run at once: on two otherwise idle cores each test caught
// its reader's seeded second load in 10 of 10 runs, plain and under
// -race; on cores shared with other test processes, 7 to 10 of 10.

// tornReadBudget bounds how long each of these tests hammers its reader.
const tornReadBudget = 300 * time.Millisecond

// swapping runs write in a loop on its own goroutine until the returned
// stop is called.
func swapping(write func()) (stop func()) {
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			write()
		}
	}()
	return func() {
		done.Store(true)
		wg.Wait()
	}
}

// admittedEntry returns the cache's one admitted entry after executing q
// on a Window-1 cache.
func admittedEntry(t *testing.T, c *Cache, q *graph.Graph) *Entry {
	t.Helper()
	if _, err := c.Execute(q, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	all := c.published.Load().all
	if len(all) != 1 {
		t.Fatalf("%d admitted entries, want 1", len(all))
	}
	return all[0]
}

// TestConcurrentSwapExactHitReadsOneState: serveExact loads the entry's
// answer cell once. The writer alternates a fresh state current for the
// view with one ahead of it; a hit either serves the current state's set
// or, meeting the ahead state, none at all — never the ahead state's set
// under the current state's verdict.
func TestConcurrentSwapExactHitReadsOneState(t *testing.T) {
	dataset := testDataset(301, 12)
	c := testCache(t, dataset, func(cfg *Config) { cfg.Window = 1; cfg.SelfCheck = false })
	e := admittedEntry(t, c, gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(302)), dataset[0], 3))
	view := c.method.View()
	current := e.Answers()
	ahead := &answersAt{set: current.Grown(view.Size() + 1)}
	stop := swapping(func() {
		e.ans.p.Store(&answersAt{set: current}) // fresh: no shared Result yet
		e.ans.p.Store(ahead)
	})
	defer stop()
	mon := &c.mon.hot[0]
	for start := time.Now(); time.Since(start) < tornReadBudget; {
		if res := c.serveExact(e, view, mon); res != nil && res.Answers != current {
			stop()
			t.Fatalf("an exact hit served a set of %d ids on a view of %d: it read two states", res.Answers.Len(), view.Size())
		}
	}
}

// TestConcurrentSwapLiveCountReadsOneState: liveCount loads the entry's
// answer cell once. The writer alternates two states of one answer set,
// one holding a graph the view removed (and a removal count that says
// so), one with the removal masked; both count the same live answers.
func TestConcurrentSwapLiveCountReadsOneState(t *testing.T) {
	dataset := testDataset(311, 12)
	c := testCache(t, dataset, func(cfg *Config) { cfg.Window = 1; cfg.SelfCheck = false })
	e := admittedEntry(t, c, gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(312)), dataset[0], 3))
	before := e.Answers()
	if !before.Contains(0) {
		t.Fatal("the pattern cut from graph 0 does not answer 0")
	}
	if err := c.RemoveGraph(0); err != nil {
		t.Fatal(err)
	}
	view := c.method.View()
	masked := withoutRemoved(before, view, 0)
	want := masked.Count()
	unmaskedAt, maskedAt := &answersAt{set: before}, at(masked, view)
	stop := swapping(func() {
		e.ans.p.Store(unmaskedAt)
		e.ans.p.Store(maskedAt)
	})
	defer stop()
	for start := time.Now(); time.Since(start) < tornReadBudget; {
		if got := liveCount(e, view); got != want {
			stop()
			t.Fatalf("liveCount read %d live answers, want %d: it read two states", got, want)
		}
	}
}

// TestConcurrentRepublishProbeWalksOneView: findExact walks one
// published view's fingerprint chain. The writer alternates two views
// holding the same three entries in different orders, so a chain
// followed through the other view's links skips the isomorphic entry.
func TestConcurrentRepublishProbeWalksOneView(t *testing.T) {
	dataset := testDataset(321, 12)
	c := testCache(t, dataset, nil)
	q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(322)), dataset[0], 3)
	other := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(323)), dataset[1], 5)
	if iso.Isomorphic(q, other) {
		t.Fatal("the two patterns are isomorphic")
	}
	wrongType := &Entry{Graph: q, Type: ftv.Supergraph}
	match := &Entry{Graph: q, Type: ftv.Subgraph}
	miss := &Entry{Graph: other, Type: ftv.Subgraph}
	const fp = graph.Fingerprint(7)
	// The chain starts at the first entry and goes on from it to next.
	chain := func(first, second, third *Entry, next int32) *resident {
		return &resident{
			all:  []*Entry{first, second, third},
			next: []int32{next, -1, -1},
			byFP: map[graph.Fingerprint]int32{fp: 0},
		}
	}
	one := chain(wrongType, match, miss, 1)
	two := chain(wrongType, miss, match, 2)
	c.published.Store(one)
	stop := swapping(func() {
		c.published.Store(one)
		c.published.Store(two)
	})
	defer stop()
	for start := time.Now(); time.Since(start) < tornReadBudget; {
		if got := c.findExact(q, ftv.Subgraph, fp); got != match {
			stop()
			t.Fatalf("the probe found %v, want the isomorphic entry: it walked two views", got)
		}
	}
}

// TestEntriesDuringAddsHoldsNoMu: Entries brings every entry forward to
// one view before it takes mu, and under mu reads them at that same view,
// so no containment test runs with mu held however many additions land
// meanwhile. An Entries that re-loaded the view under mu would bring
// entries on to the additions since, testing them under mu.
func TestEntriesDuringAddsHoldsNoMu(t *testing.T) {
	dataset := testDataset(331, 12)
	var c *Cache
	var underMu atomic.Int64
	verify := func(pattern, target *graph.Graph) bool {
		if muHeld(c) {
			underMu.Add(1)
		}
		return iso.SubIso(pattern, target)
	}
	cfg := DefaultConfig()
	cfg.Window = 1
	c = MustNew(ftv.NewMethod("ggsx/counting", dataset, ftv.NewGGSX(dataset, 3), verify), cfg)
	rng := rand.New(rand.NewSource(332))
	for i := 0; i < 6; i++ {
		if _, err := c.Execute(gen.ExtractConnectedSubgraph(rng, dataset[i], 4), ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
	// Copies of the patterns' source graphs: each passes its entry's
	// screen, so every addition leaves a containment test to run.
	var adds int
	stop := swapping(func() {
		if _, err := c.AddGraph(dataset[adds%6]); err == nil {
			adds++
		}
	})
	defer stop()
	for start := time.Now(); time.Since(start) < tornReadBudget; {
		c.Entries()
		if n := underMu.Load(); n > 0 {
			stop()
			t.Fatalf("%d containment tests ran with mu held while additions landed", n)
		}
	}
	stop()
	if adds == 0 {
		t.Fatal("no addition landed")
	}
}

// TestConcurrentMutationDatasetInfoReadsOneView: DatasetInfo reads one
// dataset view. The writer adds and removes a graph in a loop; in any
// one view the mutation count equals the additions plus the removals.
func TestConcurrentMutationDatasetInfoReadsOneView(t *testing.T) {
	dataset := testDataset(341, 12)
	c := testCache(t, dataset, nil)
	stop := swapping(func() {
		if gid, err := c.AddGraph(dataset[0]); err == nil {
			_ = c.RemoveGraph(gid)
		}
	})
	defer stop()
	for start := time.Now(); time.Since(start) < tornReadBudget; {
		d := c.DatasetInfo()
		adds, removals := d.Size-len(dataset), d.Size-d.Live
		if d.Epoch != int64(adds+removals) {
			stop()
			t.Fatalf("DatasetInfo %+v: epoch is not %d additions plus %d removals: it read two views", d, adds, removals)
		}
	}
}
