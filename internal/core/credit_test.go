package core

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// recordingPolicy captures every hit event so tests can assert the exact
// savings the kernel credits. Eviction falls back to FIFO positions.
type recordingPolicy struct {
	events []*HitEvent
}

func (p *recordingPolicy) Name() string                    { return "recording" }
func (p *recordingPolicy) UpdateCacheStaInfo(ev *HitEvent) { p.events = append(p.events, ev) }
func (p *recordingPolicy) OnWindowTurn()                   {}
func (p *recordingPolicy) ReplacedContent(entries []*Entry, x int) []int {
	out := make([]int, 0, x)
	for i := 0; i < x && i < len(entries); i++ {
		out = append(out, i)
	}
	return out
}

// TestExactHitCreditsPerGraphCosts is the regression test for the
// exact-hit crediting bug: the exact path used to price every saved test
// at the overall mean cost while the sub/super path sums per-graph
// estimates — skewing PINC/HD victim ranking against entries whose
// savings concentrate on expensive graphs. An exact hit must credit the
// per-graph estimates over the entry's answer set, with the mean applied
// only to the remainder of C_M.
func TestExactHitCreditsPerGraphCosts(t *testing.T) {
	dataset := testDataset(31, 10)
	method := ftv.NewGGSXMethod(dataset, 3)
	rec := &recordingPolicy{}
	cfg := DefaultConfig()
	cfg.Window = 1 // admit immediately
	cfg.Shards = 1
	cfg.Policy = rec
	c := MustNew(method, cfg)

	q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(5)), dataset[0], 4)
	res, err := c.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	answers := res.Answers.Indices()
	if len(answers) == 0 || res.BaseCandidates <= len(answers) {
		t.Fatalf("workload unsuitable: %d answers, %d base candidates", len(answers), res.BaseCandidates)
	}

	// Skew the cost estimates: answer graphs are expensive (1e6 ns), the
	// overall mean is cheap (1e3 ns).
	const expensive, mean = 1e6, 1e3
	for _, gid := range answers {
		c.costVal[gid].Store(math.Float64bits(expensive))
	}
	c.globalVal.Store(math.Float64bits(mean))

	res2, err := c.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.ExactHit {
		t.Fatal("expected an exact hit")
	}
	// The hit itself only bumped the entry's credit cell; the priced event
	// reaches the policy at the next fold point — Entries() is one.
	for _, e := range rec.events {
		if e.Kind == ExactHit {
			t.Fatal("exact-hit event delivered before any fold point")
		}
	}
	c.Entries()
	var ev *HitEvent
	for _, e := range rec.events {
		if e.Kind == ExactHit {
			ev = e
		}
	}
	if ev == nil {
		t.Fatal("no exact-hit event recorded")
	}
	if ev.N() != 1 || ev.Tick != 2 {
		t.Fatalf("folded event stands for %d hits at tick %d, want 1 hit at tick 2", ev.N(), ev.Tick)
	}
	saved := res.BaseCandidates
	if ev.SavedTests != saved {
		t.Fatalf("credited %d saved tests, want %d", ev.SavedTests, saved)
	}
	want := float64(len(answers))*expensive + float64(saved-len(answers))*mean
	if math.Abs(ev.SavedCostNs-want) > 1e-3 {
		t.Fatalf("credited cost %.0f ns, want %.0f (per-graph over answers + mean remainder)", ev.SavedCostNs, want)
	}
	// The old formula — every saved test at the mean — must not survive.
	if old := float64(saved) * mean; math.Abs(ev.SavedCostNs-old) < 1e-3 {
		t.Fatalf("credited cost %.0f ns still equals the flat-mean pricing", ev.SavedCostNs)
	}
}

// admittedPatterns builds a cache whose window admits at once and
// executes n distinct patterns on it, so each is an admitted entry that
// every later issue exact-hits. Nothing is admitted afterwards, so no
// window turn — and no aging — happens behind the tests' backs.
func admittedPatterns(t *testing.T, n int, mutate func(*Config)) (*Cache, []*graph.Graph) {
	t.Helper()
	dataset := testDataset(131, 20)
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Window = 1
		cfg.SelfCheck = false
		if mutate != nil {
			mutate(cfg)
		}
	})
	rng := rand.New(rand.NewSource(132))
	seen := map[graph.Fingerprint]bool{}
	var qs []*graph.Graph
	for i := 0; len(qs) < n; i++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[i%len(dataset)], 3+i%4)
		if fp := q.WLFingerprint(3); seen[fp] {
			continue
		} else {
			seen[fp] = true
		}
		if _, err := c.Execute(q, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	if c.Len() != n {
		t.Fatalf("admitted %d entries, want %d", c.Len(), n)
	}
	return c, qs
}

// entryFor returns the Entries() copy whose pattern is q.
func entryFor(t *testing.T, c *Cache, q *graph.Graph) *Entry {
	t.Helper()
	for _, e := range c.Entries() {
		if e.Graph == q {
			return e
		}
	}
	t.Fatal("pattern not among the admitted entries")
	return nil
}

// TestExactHitCreditsAreConserved hammers three entries with exact hits
// from eight goroutines: hits only touch the entries' credit cells, and
// the fold in Entries() must account for every single one — hit counts
// and saved tests exactly, recency as the latest hit's tick.
func TestExactHitCreditsAreConserved(t *testing.T) {
	c, qs := admittedPatterns(t, 3, nil)
	const goroutines, perGoroutine = 8, 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				res, err := c.Execute(qs[(g+i)%len(qs)], ftv.Subgraph)
				if err != nil || !res.ExactHit {
					t.Errorf("hit %d/%d: exact=%v err=%v", g, i, res != nil && res.ExactHit, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	want := make([]int64, len(qs))
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perGoroutine; i++ {
			want[(g+i)%len(qs)]++
		}
	}
	lastTick := int64(len(qs) + goroutines*perGoroutine)
	var newest int64
	for i, q := range qs {
		e := entryFor(t, c, q)
		if e.Hits != want[i] {
			t.Errorf("entry %d: Hits = %d, want %d", i, e.Hits, want[i])
		}
		if wantSaved := float64(want[i]) * float64(e.BaseCandidates); e.SavedTests != wantSaved {
			t.Errorf("entry %d: SavedTests = %v, want %v", i, e.SavedTests, wantSaved)
		}
		if e.LastUsed > lastTick {
			t.Errorf("entry %d: LastUsed %d is beyond the last tick %d", i, e.LastUsed, lastTick)
		}
		newest = max(newest, e.LastUsed)
	}
	if newest != lastTick {
		t.Errorf("newest LastUsed = %d, want the last query's tick %d", newest, lastTick)
	}
	// Sequentially the tick of each hit is known: LastUsed must be it.
	for i, q := range qs {
		if _, err := c.Execute(q, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
		lastTick++
		if e := entryFor(t, c, q); e.LastUsed != lastTick || e.Hits != want[i]+1 {
			t.Errorf("entry %d: LastUsed/Hits = %d/%d, want %d/%d", i, e.LastUsed, e.Hits, lastTick, want[i]+1)
		}
	}
	if s := c.Stats(); s.ExactHits != int64(goroutines*perGoroutine+len(qs)) || s.Queries != lastTick {
		t.Errorf("monitor lost counts: %d exact hits over %d queries, want %d over %d",
			s.ExactHits, s.Queries, goroutines*perGoroutine+len(qs), lastTick)
	}
}

// TestCreditsFoldBeforeEveryRead: with no window turn in between, pending
// exact-hit credits must be visible through Entries() and written by
// WriteState/WriteStateV2 — every reader of utilities folds first.
func TestCreditsFoldBeforeEveryRead(t *testing.T) {
	for _, format := range []string{"v3", "v2"} {
		c, qs := admittedPatterns(t, 2, nil)
		const hits = 7
		for i := 0; i < hits; i++ {
			if _, err := c.Execute(qs[0], ftv.Subgraph); err != nil {
				t.Fatal(err)
			}
		}
		turns := c.Stats().WindowTurns
		var buf bytes.Buffer
		write := c.WriteState
		if format == "v2" {
			write = c.WriteStateV2
		}
		if err := write(&buf); err != nil { // the first fold point reached
			t.Fatal(err)
		}
		restored := testCache(t, testDataset(131, 20), func(cfg *Config) { cfg.SelfCheck = false })
		if err := restored.ReadState(&buf); err != nil {
			t.Fatal(err)
		}
		for _, cache := range []*Cache{restored, c} {
			for _, e := range cache.Entries() {
				wantHits := int64(0)
				if e.Fingerprint == qs[0].WLFingerprint(3) {
					wantHits = hits
				}
				if e.Hits != wantHits || e.SavedTests != float64(wantHits)*float64(e.BaseCandidates) {
					t.Errorf("%s: entry %d has Hits/SavedTests %d/%v, want %d/%v", format,
						e.ID, e.Hits, e.SavedTests, wantHits, float64(wantHits)*float64(e.BaseCandidates))
				}
			}
		}
		if got := c.Stats().WindowTurns; got != turns {
			t.Fatalf("%s: a window turn (%d → %d) folded the credits, not the readers", format, turns, got)
		}
	}
}

// TestExactHitResultIsThePublishedSet pins the answer path's contract:
// an exact hit returns the entry's published answer set itself, and
// because dataset maintenance republishes instead of mutating, a held
// Result stays a valid snapshot while the next query sees the change.
func TestExactHitResultIsThePublishedSet(t *testing.T) {
	c, qs := admittedPatterns(t, 1, nil)
	held, err := c.Execute(qs[0], ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	published := entryFor(t, c, qs[0]).Answers()
	if !held.ExactHit || held.Answers != published || held.Sure != published {
		t.Fatalf("exact hit returned a copy (exact=%v), want the published set itself", held.ExactHit)
	}
	if !held.Excluded.Empty() || !held.Survivors.Empty() || held.Excluded.Len() != published.Len() ||
		len(held.Hits) != 1 || held.Hits[0].Kind != ExactHit {
		t.Fatalf("exact-hit result malformed: %+v", held)
	}
	members := held.Answers.Indices()
	if len(members) == 0 {
		t.Fatal("workload unsuitable: empty answer set")
	}
	if err := c.RemoveGraph(members[0]); err != nil {
		t.Fatal(err)
	}
	if !held.Answers.Contains(members[0]) || held.Answers.Count() != len(members) {
		t.Error("RemoveGraph wrote through to a held Result: the published set was mutated in place")
	}
	next, err := c.Execute(qs[0], ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !next.ExactHit || next.Answers.Contains(members[0]) || next.Answers.Count() != len(members)-1 {
		t.Errorf("query after RemoveGraph(%d): exact=%v, %d answers, want the bit cleared from %d",
			members[0], next.ExactHit, next.Answers.Count(), len(members))
	}
}
