package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/graph"
)

// growStack recurses through depth frames of about 1 KiB each, so the
// calling goroutine's stack grows past depth KiB.
//
//go:noinline
func growStack(depth int) byte {
	var pad [1024]byte
	pad[depth%len(pad)] = byte(depth)
	if depth == 0 {
		return pad[0]
	}
	return growStack(depth-1) + pad[depth%len(pad)]
}

// TestReadSlotSpreadsGrownStacks: a grown stack is aligned to its size,
// so goroutines whose stacks grew past 32 KiB agree in every address bit
// below that. Held alive together, 64 of them must still land on at
// least half the Monitor stripes; masking bits 11–14 put them on two.
func TestReadSlotSpreadsGrownStacks(t *testing.T) {
	const goroutines = 64
	slots := make([]int, goroutines)
	var ready, done sync.WaitGroup
	release := make(chan struct{})
	for g := range goroutines {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			growStack(40)
			slots[g] = readSlot()
			ready.Done()
			<-release // keep every stack allocated until all have read
		}()
	}
	ready.Wait()
	close(release)
	done.Wait()
	seen := map[int]int{}
	for _, s := range slots {
		seen[s]++
	}
	if len(seen) < monitorSlots/2 {
		t.Fatalf("64 goroutines with grown stacks on %d of %d stripes: %v", len(seen), monitorSlots, seen)
	}
}

// residentEntry returns the cache's own resident entry with the given ID
// (admittedPatterns admits its patterns as IDs 0, 1, ...).
func residentEntry(t *testing.T, c *Cache, id int) *Entry {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entryByIDLocked(id); e != nil {
		return e
	}
	t.Fatalf("no resident entry %d", id)
	return nil
}

// creditWordsOf sums, over every stripe, the counts the credit tables
// hold for the entry with the given ID.
func creditWordsOf(c *Cache, id int) int64 {
	var n int64
	for i := range c.mon.hot {
		for j := range c.mon.hot[i].credits {
			if w := c.mon.hot[i].credits[j].Load(); w != 0 && int(w>>creditCountBits)-1 == id {
				n += int64(w & creditCountMask)
			}
		}
	}
	return n
}

// hitExact issues q n times and fails unless each is an exact hit.
func hitExact(t *testing.T, c *Cache, q *graph.Graph, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if res, err := c.Execute(q, ftv.Subgraph); err != nil || !res.ExactHit {
			t.Fatalf("hit %d: exact=%v err=%v", i, res != nil && res.ExactHit, err)
		}
	}
}

// holdStripe keeps the test goroutine on one stripe for the rest of the
// test: no GC can shrink (and so move) its stack while exact hits, which
// allocate nothing, run.
func holdStripe(t *testing.T) {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// TestCreditTableCongruentIDsKeepEveryHit: entries 0 and 64 share a word
// of every stripe. Hit from one goroutine, the first to claim the word
// keeps it and the other credits its own cell, and both keep every hit.
func TestCreditTableCongruentIDsKeepEveryHit(t *testing.T) {
	c, qs := admittedPatterns(t, creditWords+1, func(cfg *Config) { cfg.Capacity = 2 * creditWords })
	holdStripe(t)
	first, second := residentEntry(t, c, 0), residentEntry(t, c, creditWords)
	const hitsFirst, hitsSecond = 37, 23
	before := []int64{entryFor(t, c, qs[0]).Hits, entryFor(t, c, qs[creditWords]).Hits}
	for i := 0; i < hitsFirst+hitsSecond; i++ {
		q := qs[0]
		if i%2 == 1 && i/2 < hitsSecond {
			q = qs[creditWords]
		}
		hitExact(t, c, q, 1)
	}
	if got := creditWordsOf(c, 0); got != hitsFirst || first.ans.pendingExact.Load() != 0 {
		t.Errorf("entry 0 (word claimed first): %d hits in words, %d in its cell, want %d and 0",
			got, first.ans.pendingExact.Load(), hitsFirst)
	}
	if got := creditWordsOf(c, creditWords); got != 0 || second.ans.pendingExact.Load() != hitsSecond {
		t.Errorf("entry %d (word taken): %d hits in words, %d in its cell, want 0 and %d",
			creditWords, got, second.ans.pendingExact.Load(), hitsSecond)
	}
	if got := entryFor(t, c, qs[0]).Hits - before[0]; got != hitsFirst {
		t.Errorf("entry 0 folded %d hits, want %d", got, hitsFirst)
	}
	if got := entryFor(t, c, qs[creditWords]).Hits - before[1]; got != hitsSecond {
		t.Errorf("entry %d folded %d hits, want %d", creditWords, got, hitsSecond)
	}
	if n := creditWordsOf(c, 0); n != 0 {
		t.Errorf("the fold left %d hits in the credit tables", n)
	}
}

// TestCreditTableSaturatedWordFallsBack: a word whose count is one below
// 2^creditCountBits cannot count another hit, which goes to the entry's
// own cell; the fold credits both, the seeded count included.
func TestCreditTableSaturatedWordFallsBack(t *testing.T) {
	c, qs := admittedPatterns(t, 2, nil)
	holdStripe(t)
	e := residentEntry(t, c, 1)
	before := entryFor(t, c, qs[1]).Hits
	hitExact(t, c, qs[1], 1) // claims entry 1's word in the stripe this call site hits from
	for i := range c.mon.hot {
		if w := &c.mon.hot[i].credits[1]; w.Load() != 0 {
			w.Store(2<<creditCountBits | creditCountMask)
		}
	}
	hitExact(t, c, qs[1], 1)
	if got := e.ans.pendingExact.Load(); got != 1 {
		t.Fatalf("the hit on a saturated word left %d in the entry's cell, want 1", got)
	}
	if got := creditWordsOf(c, 1); got != creditCountMask {
		t.Fatalf("the saturated word counts %d, want %d", got, creditCountMask)
	}
	if got, want := entryFor(t, c, qs[1]).Hits-before, int64(creditCountMask)+1; got != want {
		t.Errorf("folded %d hits, want %d", got, want)
	}
}

// TestCreditTableDropsCreditsOfGoneEntries: a word counts an entry by ID,
// and IDs are never reused, so hits counted for an entry evicted before
// the fold, or for entries a ReadState replaced, reach no entry — not
// even the restored copy of the same pattern — and the fold frees the
// word.
func TestCreditTableDropsCreditsOfGoneEntries(t *testing.T) {
	t.Run("evicted", func(t *testing.T) {
		c, qs := admittedPatterns(t, 3, func(cfg *Config) { cfg.Policy = &recordingPolicy{} })
		holdStripe(t)
		gone := residentEntry(t, c, 0)
		view := c.method.View()
		// Evict entry 0 (the policy names the oldest) as a turn would; a
		// reader that loaded the view before the turn still hits it.
		c.mu.Lock()
		kept, freed := c.evictLocked(nil, c.published.Load().all, 1)
		c.publishLocked(kept, c.Bytes()-freed)
		c.mu.Unlock()
		if c.serveExact(gone, view, &c.mon.hot[readSlot()]) == nil {
			t.Fatal("no hit on the evicted entry")
		}
		if creditWordsOf(c, gone.ID) != 1 {
			t.Fatal("the hit was not counted in a credit word")
		}
		for _, e := range c.Entries() {
			if e.Graph == qs[0] {
				t.Fatal("entry 0 still resident")
			}
			if e.Hits != 0 {
				t.Errorf("entry %d received %d hits, want 0", e.ID, e.Hits)
			}
		}
		if n := creditWordsOf(c, gone.ID); n != 0 || gone.ans.pendingExact.Load() != 0 {
			t.Errorf("after the fold: %d hits in words, %d in the evicted cell, want none", n, gone.ans.pendingExact.Load())
		}
	})
	t.Run("replaced", func(t *testing.T) {
		c, qs := admittedPatterns(t, 3, nil)
		holdStripe(t)
		var state bytes.Buffer
		if err := c.WriteState(&state); err != nil {
			t.Fatal(err)
		}
		const hits = 5
		hitExact(t, c, qs[0], hits)
		if creditWordsOf(c, 0) != hits {
			t.Fatal("the hits were not counted in credit words")
		}
		if err := c.ReadState(&state); err != nil {
			t.Fatal(err)
		}
		for _, e := range c.Entries() {
			if e.ID < len(qs) {
				t.Fatalf("restored entry reuses ID %d", e.ID)
			}
			if e.Hits != 0 {
				t.Errorf("restored entry %d has %d hits, want the snapshot's 0", e.ID, e.Hits)
			}
		}
		if n := creditWordsOf(c, 0); n != 0 {
			t.Errorf("the fold left %d hits of a replaced entry in the credit tables", n)
		}
	})
}

// TestCreditTableHitsWriteNoSharedCell: between two folds, exact hits on
// an entry already stamped since the last miss write neither the cache's
// tick nor any cell of the entry; the next fold still credits all of
// them.
func TestCreditTableHitsWriteNoSharedCell(t *testing.T) {
	c, qs := admittedPatterns(t, 2, nil)
	holdStripe(t)
	e := residentEntry(t, c, 1)
	if _, err := c.Execute(qs[1], ftv.Subgraph); err != nil { // stamps lastHit
		t.Fatal(err)
	}
	before := entryFor(t, c, qs[1]).Hits // a fold
	tick, pending, lastHit := c.tick.Load(), e.ans.pendingExact.Load(), e.ans.lastHit.Load()
	const hits = 50
	hitExact(t, c, qs[1], hits)
	if c.tick.Load() != tick || e.ans.pendingExact.Load() != pending || e.ans.lastHit.Load() != lastHit {
		t.Errorf("hits wrote shared cells: tick %d→%d, pendingExact %d→%d, lastHit %d→%d",
			tick, c.tick.Load(), pending, e.ans.pendingExact.Load(), lastHit, e.ans.lastHit.Load())
	}
	if got := entryFor(t, c, qs[1]).Hits - before; got != hits {
		t.Errorf("folded %d hits, want %d", got, hits)
	}
}

// TestCreditTableKeepsPendingEntriesCredits: hits on an entry still in
// the admission window are found by ID in the window. A fold that reads
// only the resident entries (Entries) moves them into the entry's cell,
// and the turn that admits the entry delivers them.
func TestCreditTableKeepsPendingEntriesCredits(t *testing.T) {
	dataset := testDataset(131, 20)
	c := testCache(t, dataset, func(cfg *Config) { cfg.Window = 2; cfg.SelfCheck = false })
	qs := distinctPatterns(t, rand.New(rand.NewSource(949)), dataset, 2)
	if _, err := c.Execute(qs[0], ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	const hits = 9
	hitExact(t, c, qs[0], hits)
	if n := len(c.Entries()); n != 0 || c.WindowLen() != 1 {
		t.Fatalf("%d resident, %d pending: want the pattern still pending", n, c.WindowLen())
	}
	if n := creditWordsOf(c, 0); n != 0 {
		t.Fatalf("Entries left %d hits of the pending entry in the credit tables", n)
	}
	if _, err := c.Execute(qs[1], ftv.Subgraph); err != nil { // fills the window: a turn
		t.Fatal(err)
	}
	if got := entryFor(t, c, qs[0]).Hits; got != hits {
		t.Errorf("the admitted entry has %d hits, want the %d it took while pending", got, hits)
	}
}

// TestCreditTableConcurrentFoldsKeepEveryHit: hitters race a goroutine
// that folds (Entries) in a loop, on two entries that share every
// stripe's word and one that does not. Claims, bumps, fallbacks and
// drains interleave; every hit is credited exactly once.
func TestCreditTableConcurrentFoldsKeepEveryHit(t *testing.T) {
	c, qs := admittedPatterns(t, creditWords+1, func(cfg *Config) { cfg.Capacity = 2 * creditWords })
	hot := []int{0, 1, creditWords}
	before := map[int]int64{} // sub/super hits among the admitting misses
	for _, id := range hot {
		before[id] = entryFor(t, c, qs[id]).Hits
	}
	const goroutines, perGoroutine = 4, 3000
	var hitters sync.WaitGroup
	stop := make(chan struct{})
	folded := make(chan struct{})
	go func() {
		defer close(folded)
		for {
			select {
			case <-stop:
				return
			default:
				c.Entries()
			}
		}
	}()
	for g := range goroutines {
		hitters.Add(1)
		go func() {
			defer hitters.Done()
			for i := range perGoroutine {
				if res, err := c.Execute(qs[hot[(g+i)%len(hot)]], ftv.Subgraph); err != nil || !res.ExactHit {
					t.Errorf("hit %d/%d: exact=%v err=%v", g, i, res != nil && res.ExactHit, err)
					return
				}
			}
		}()
	}
	hitters.Wait()
	close(stop)
	<-folded
	want := map[int]int64{}
	for g := range goroutines {
		for i := range perGoroutine {
			want[hot[(g+i)%len(hot)]]++
		}
	}
	for _, id := range hot {
		if got := entryFor(t, c, qs[id]).Hits - before[id]; got != want[id] {
			t.Errorf("entry %d: %d hits credited, want %d", id, got, want[id])
		}
	}
}
