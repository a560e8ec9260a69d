package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// mkEntry builds a bare entry with the given utility stats.
func mkEntry(id int, inserted, lastUsed, hits int64, savedTests, savedCost float64) *Entry {
	return &Entry{
		ID:          id,
		InsertedAt:  inserted,
		LastUsed:    lastUsed,
		Hits:        hits,
		SavedTests:  savedTests,
		SavedCostNs: savedCost,
	}
}

func idsAt(entries []*Entry, pos []int) []int {
	out := make([]int, len(pos))
	for i, p := range pos {
		out[i] = entries[p].ID
	}
	return out
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	entries := []*Entry{
		mkEntry(0, 1, 10, 0, 0, 0),
		mkEntry(1, 2, 5, 0, 0, 0),
		mkEntry(2, 3, 20, 0, 0, 0),
	}
	got := idsAt(entries, NewLRU().ReplacedContent(entries, 2))
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("LRU victims = %v, want [1 0]", got)
	}
}

func TestFIFOEvictsOldest(t *testing.T) {
	entries := []*Entry{
		mkEntry(0, 5, 100, 0, 0, 0),
		mkEntry(1, 1, 200, 0, 0, 0),
		mkEntry(2, 3, 300, 0, 0, 0),
	}
	got := idsAt(entries, NewFIFO().ReplacedContent(entries, 1))
	if got[0] != 1 {
		t.Errorf("FIFO victim = %v, want [1]", got)
	}
}

func TestPOPEvictsLeastPopular(t *testing.T) {
	entries := []*Entry{
		mkEntry(0, 1, 1, 9, 0, 0),
		mkEntry(1, 1, 2, 2, 0, 0),
		mkEntry(2, 1, 3, 5, 0, 0),
	}
	got := idsAt(entries, NewPOP().ReplacedContent(entries, 2))
	if got[0] != 1 || got[1] != 2 {
		t.Errorf("POP victims = %v, want [1 2]", got)
	}
}

func TestPINEvictsFewestSavedTests(t *testing.T) {
	entries := []*Entry{
		mkEntry(0, 1, 1, 1, 100, 0),
		mkEntry(1, 1, 2, 9, 3, 0),
		mkEntry(2, 1, 3, 1, 50, 0),
	}
	got := idsAt(entries, NewPIN().ReplacedContent(entries, 1))
	if got[0] != 1 {
		t.Errorf("PIN victim = %v, want [1]", got)
	}
}

func TestPINCEvictsCheapestSavings(t *testing.T) {
	entries := []*Entry{
		mkEntry(0, 1, 1, 1, 5, 1e9),
		mkEntry(1, 1, 2, 1, 500, 1e3), // many tests saved but dirt cheap ones
		mkEntry(2, 1, 3, 1, 5, 1e6),
	}
	got := idsAt(entries, NewPINC().ReplacedContent(entries, 1))
	if got[0] != 1 {
		t.Errorf("PINC victim = %v, want [1]", got)
	}
}

func TestHDBlendsPINAndPINC(t *testing.T) {
	hd := NewHD()
	// Uniform per-hit cost observations keep cost weight near CV/(1+CV)=0
	// so HD reduces to normalized PIN.
	entries := []*Entry{
		mkEntry(0, 1, 1, 1, 100, 100),
		mkEntry(1, 1, 2, 1, 1, 1),
		mkEntry(2, 1, 3, 1, 50, 50),
	}
	got := idsAt(entries, hd.ReplacedContent(entries, 1))
	if got[0] != 1 {
		t.Errorf("HD victim = %v, want [1]", got)
	}
}

func TestHDCostWeightAdapts(t *testing.T) {
	hd := NewHD().(*scorePolicy)
	// Feed highly dispersed cost observations.
	for i, c := range []float64{10, 1e7, 5, 2e7, 1} {
		hd.UpdateCacheStaInfo(&HitEvent{Entry: mkEntry(i, 1, 1, 0, 0, 0), SavedTests: 1, SavedCostNs: c, Tick: int64(i)})
	}
	if hd.costCV.CV() < 0.5 {
		t.Fatalf("test setup: CV = %v should be large", hd.costCV.CV())
	}
	// Entry 0 saves many cheap tests; entry 1 saves few but expensive ones.
	// With high cost dispersion HD must favor keeping the expensive-savings
	// entry, i.e. evict the cheap-savings one... but normalized PIN also
	// counts. Construct so PINC dominates: equal saved tests, different cost.
	entries := []*Entry{
		mkEntry(0, 1, 1, 1, 10, 1e3),
		mkEntry(1, 1, 2, 1, 10, 1e8),
	}
	got := idsAt(entries, hd.ReplacedContent(entries, 1))
	if got[0] != 0 {
		t.Errorf("HD with dispersed costs evicted %v, want [0] (cheap savings)", got)
	}
}

// fullSortVictims is the victim selection ReplacedContent used to be: a
// comparison sort of every position under (score, LastUsed, ID), first x
// taken. Kept here as the oracle for the bounded selection that replaced
// it.
func fullSortVictims(p *scorePolicy, entries []*Entry, x int) []int {
	idx := make([]int, len(entries))
	for i := range idx {
		idx[i] = i
	}
	if x >= len(entries) {
		return idx // everything goes: no ranking needed
	}
	ctx := p.contextFor(entries)
	sort.Slice(idx, func(a, b int) bool {
		ea, eb := entries[idx[a]], entries[idx[b]]
		sa, sb := p.score(ea, ctx), p.score(eb, ctx)
		if sa != sb {
			return sa < sb
		}
		if ea.LastUsed != eb.LastUsed {
			return ea.LastUsed < eb.LastUsed
		}
		return ea.ID < eb.ID
	})
	return idx[:x]
}

// TestVictimSelectionMatchesFullSort: for every score policy, on random
// utilities drawn from a handful of values (so score ties and LastUsed
// ties are the common case and the ID tiebreak decides), the bounded
// selection returns the same positions in the same order as the full
// sort, from no victims to all of them.
func TestVictimSelectionMatchesFullSort(t *testing.T) {
	const n = 301
	for _, name := range []string{"lru", "fifo", "pop", "pin", "pinc", "hd"} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pol, err := NewPolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			p := pol.(*scorePolicy)
			entries := make([]*Entry, n)
			for i, id := range rng.Perm(n) {
				entries[i] = mkEntry(id, int64(rng.Intn(4)), int64(rng.Intn(5)), int64(rng.Intn(3)),
					float64(rng.Intn(3)), 1000*float64(rng.Intn(3)))
			}
			// Give HD a non-trivial cost weight to blend with.
			for i := 0; i < 20; i++ {
				p.UpdateCacheStaInfo(&HitEvent{Entry: mkEntry(-1, 0, 0, 0, 0, 0), Kind: SubHit, SavedTests: 1, SavedCostNs: float64(rng.Intn(5000))})
			}
			for _, x := range []int{0, 1, 10, n / 2, n - 1, n} {
				got, want := p.ReplacedContent(entries, x), fullSortVictims(p, entries, x)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s seed %d x=%d:\n selected  %v\n full sort %v", name, seed, x, got, want)
				}
			}
		}
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	entries := []*Entry{
		mkEntry(7, 1, 4, 2, 0, 0),
		mkEntry(3, 1, 4, 2, 0, 0),
		mkEntry(5, 1, 4, 2, 0, 0),
	}
	for _, p := range []Policy{NewLRU(), NewPOP(), NewPIN(), NewPINC(), NewHD()} {
		got := idsAt(entries, p.ReplacedContent(entries, 2))
		if got[0] != 3 || got[1] != 5 {
			t.Errorf("%s tie-break = %v, want [3 5]", p.Name(), got)
		}
	}
}

func TestReplacedContentAllWhenXTooLarge(t *testing.T) {
	entries := []*Entry{mkEntry(0, 1, 1, 0, 0, 0), mkEntry(1, 2, 2, 0, 0, 0)}
	for _, p := range []Policy{NewLRU(), NewRand(1), NewHD()} {
		got := p.ReplacedContent(entries, 10)
		if len(got) != 2 {
			t.Errorf("%s: x>len returned %d positions, want 2", p.Name(), len(got))
		}
	}
}

func TestRandPolicyDistinctAndSeeded(t *testing.T) {
	entries := make([]*Entry, 20)
	for i := range entries {
		entries[i] = mkEntry(i, int64(i), int64(i), 0, 0, 0)
	}
	a := NewRand(42).ReplacedContent(entries, 5)
	b := NewRand(42).ReplacedContent(entries, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("rand policy not reproducible from seed")
		}
	}
	seen := map[int]bool{}
	for _, p := range a {
		if seen[p] {
			t.Fatal("rand policy returned duplicate positions")
		}
		seen[p] = true
	}
}

func TestUpdateCacheStaInfoAccumulates(t *testing.T) {
	p := NewPIN()
	e := mkEntry(0, 1, 1, 0, 0, 0)
	p.UpdateCacheStaInfo(&HitEvent{Entry: e, Kind: SubHit, SavedTests: 7, SavedCostNs: 100, Tick: 5})
	p.UpdateCacheStaInfo(&HitEvent{Entry: e, Kind: SuperHit, SavedTests: 3, SavedCostNs: 50, Tick: 9})
	if e.Hits != 2 || e.SavedTests != 10 || e.SavedCostNs != 150 || e.LastUsed != 9 {
		t.Errorf("entry stats = %+v", e)
	}
}

func TestNewPolicyByName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("NewPolicy(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := NewPolicy("bogus"); err == nil {
		t.Error("unknown policy should error")
	}
}

func TestEntryAging(t *testing.T) {
	e := mkEntry(0, 1, 1, 3, 100, 1000)
	e.age(0.5)
	if e.SavedTests != 50 || e.SavedCostNs != 500 {
		t.Errorf("aged entry = %+v", e)
	}
	if e.Hits != 3 {
		t.Error("aging must not touch hit counts")
	}
}

func TestHitKindString(t *testing.T) {
	if ExactHit.String() != "exact" || SubHit.String() != "sub" || SuperHit.String() != "super" {
		t.Error("HitKind strings wrong")
	}
	if HitKind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

// Every bundled policy credits a HitEvent N() times — a folded exact-hit
// event stands for Count hits — keeps the newest tick rather than the
// event's, and treats Count 0 as one contribution.
func TestBundledPoliciesHonourEventCount(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		e := mkEntry(0, 1, 50, 2, 10, 100)
		p.UpdateCacheStaInfo(&HitEvent{Entry: e, Kind: ExactHit, SavedTests: 4, SavedCostNs: 2.5, Tick: 40, Count: 3})
		if e.Hits != 5 || e.SavedTests != 22 || e.SavedCostNs != 107.5 || e.LastUsed != 50 {
			t.Errorf("%s, Count 3 at an older tick: hits/tests/cost/last = %d/%v/%v/%d, want 5/22/107.5/50",
				name, e.Hits, e.SavedTests, e.SavedCostNs, e.LastUsed)
		}
		p.UpdateCacheStaInfo(&HitEvent{Entry: e, Kind: SubHit, SavedTests: 1, SavedCostNs: 0.5, Tick: 60})
		if e.Hits != 6 || e.SavedTests != 23 || e.SavedCostNs != 108 || e.LastUsed != 60 {
			t.Errorf("%s, Count 0: hits/tests/cost/last = %d/%v/%v/%d, want 6/23/108/60",
				name, e.Hits, e.SavedTests, e.SavedCostNs, e.LastUsed)
		}
	}
}

// TestPolicyCompetitionShape is the paper's EXP-I take-away (§3.1.I) on
// sub-iso test counts: over four workload classes that each favour a
// different utility signal, no policy ever adds dataset tests to the
// uncached method's bill, and HD's bill is within 10% of the best
// policy's on every class.
func TestPolicyCompetitionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	molecules := func(seed int64) []*graph.Graph {
		return gen.Molecules(rand.New(rand.NewSource(seed)), 200, gen.DefaultMoleculeConfig())
	}
	// Two molecule size classes: verification against the large ones costs
	// an order of magnitude more, which separates PIN from PINC.
	skewRng := rand.New(rand.NewSource(10))
	small := gen.Molecules(skewRng, 120, gen.MoleculeConfig{MinV: 12, MaxV: 20, RingFrac: 0.08, MaxDegree: 4, Labels: 12})
	large := gen.Molecules(skewRng, 80, gen.MoleculeConfig{MinV: 70, MaxV: 110, RingFrac: 0.08, MaxDegree: 4, Labels: 12})

	classes := []struct {
		name             string
		dataset          []*graph.Graph
		zipfS, chainFrac float64
		maxEdges         int
	}{
		{"zipf-chain", molecules(7), 1.2, 0.6, 14},                               // popularity + containment: PIN's home turf
		{"uniform-chain", molecules(8), 0, 0.7, 14},                              // containment without skew: LRU suffers
		{"zipf-flat", molecules(9), 1.4, 0, 14},                                  // repeats without containment: POP/LRU do fine
		{"costskew-chain", gen.AssignIDs(append(small, large...)), 1.2, 0.5, 10}, // saved tests differ wildly in price: PINC's home turf
	}
	for _, class := range classes {
		t.Run(class.name, func(t *testing.T) {
			// The pool is 3× the capacity below, so replacement decisions
			// matter (a pool that fits saturates every policy alike).
			w, err := gen.NewWorkload(rand.New(rand.NewSource(107)), class.dataset, gen.WorkloadConfig{
				Size: 300, Type: ftv.Subgraph, PoolSize: 150,
				ZipfS: class.zipfS, ChainFrac: class.chainFrac, ChainLen: 3, MinEdges: 3, MaxEdges: class.maxEdges,
			})
			if err != nil {
				t.Fatal(err)
			}
			method := ftv.NewGGSXMethod(class.dataset, 3)
			var uncached int64
			for _, q := range w.Queries {
				uncached += int64(method.Run(q.G, q.Type).Tests)
			}
			bills := map[string]int64{}
			best := uncached
			for _, name := range []string{"lru", "pop", "pin", "pinc", "hd"} {
				policy, err := NewPolicy(name)
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig()
				cfg.Shards = 1 // sequential: contents independent of sharding
				cfg.Capacity = 50
				cfg.Window = 10
				cfg.Policy = policy
				c := MustNew(method, cfg)
				for _, q := range w.Queries {
					if _, err := c.Execute(q.G, q.Type); err != nil {
						t.Fatal(err)
					}
				}
				bills[name] = c.Stats().TestsExecuted
				if bills[name] > uncached {
					t.Errorf("%s: %d dataset tests, uncached method %d", name, bills[name], uncached)
				}
				best = min(best, bills[name])
			}
			if hd := bills["hd"]; float64(best) < 0.9*float64(hd) {
				t.Errorf("HD's bill %d not within 10%% of the best %d (all: %v)", hd, best, bills)
			}
		})
	}
}
