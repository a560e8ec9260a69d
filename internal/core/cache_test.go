package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"graphcache/internal/bitset"
	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

func testDataset(seed int64, count int) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	cfg := gen.MoleculeConfig{MinV: 10, MaxV: 20, RingFrac: 0.1, MaxDegree: 4, Labels: 6}
	return gen.Molecules(rng, count, cfg)
}

func testCache(t *testing.T, dataset []*graph.Graph, mutate func(*Config)) *Cache {
	t.Helper()
	method := ftv.NewGGSXMethod(dataset, 3)
	cfg := DefaultConfig()
	cfg.SelfCheck = true
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(method, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	dataset := testDataset(1, 5)
	method := ftv.NewGGSXMethod(dataset, 2)
	bad := []Config{
		{Capacity: 0, Window: 1, DecayFactor: 1},
		{Capacity: 1, Window: 0, DecayFactor: 1},
		{Capacity: 1, Window: 1, DecayFactor: 0},
		{Capacity: 1, Window: 1, DecayFactor: 1.5},
		{Capacity: 1, Window: 1, DecayFactor: 1, MaxSubHits: -1},
		{Capacity: 1, Window: 1, DecayFactor: 1, FeatureLen: -1},
	}
	for i, cfg := range bad {
		if _, err := New(method, cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if _, err := New(nil, DefaultConfig()); err == nil {
		t.Error("nil method should be rejected")
	}
}

func TestExecuteNilQuery(t *testing.T) {
	c := testCache(t, testDataset(2, 5), nil)
	if _, err := c.Execute(nil, ftv.Subgraph); err == nil {
		t.Error("nil query should error")
	}
}

// The central correctness property: cache answers must equal base answers
// for every query of a realistic mixed workload (SelfCheck panics inside
// Execute on violation; we assert explicitly too).
func TestCacheCorrectnessSubgraphWorkload(t *testing.T) {
	dataset := testDataset(3, 40)
	c := testCache(t, dataset, nil)
	rng := rand.New(rand.NewSource(4))
	w, err := gen.NewWorkload(rng, dataset, gen.WorkloadConfig{
		Size: 120, Type: ftv.Subgraph, PoolSize: 25,
		ZipfS: 1.2, ChainFrac: 0.6, ChainLen: 3, MinEdges: 3, MaxEdges: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range w.Queries {
		res, err := c.Execute(q.G, q.Type)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		base := c.Method().Run(q.G, q.Type)
		if !res.Answers.Equal(base.Answers) {
			t.Fatalf("query %d: answers diverge", i)
		}
		assertResultInvariants(t, res)
	}
	snap := c.Stats()
	if snap.Queries != 120 {
		t.Errorf("monitor queries = %d", snap.Queries)
	}
	if snap.ExactHits == 0 {
		t.Error("Zipf workload should produce exact hits")
	}
	if snap.SubHits+snap.SuperHits == 0 {
		t.Error("chained workload should produce sub/super hits")
	}
	if snap.TestsSaved == 0 {
		t.Error("cache saved no tests")
	}
	if snap.TestSpeedup() <= 1 {
		t.Errorf("test speedup = %v, want > 1", snap.TestSpeedup())
	}
}

func TestCacheCorrectnessSupergraphWorkload(t *testing.T) {
	dataset := testDataset(5, 30)
	c := testCache(t, dataset, nil)
	rng := rand.New(rand.NewSource(6))
	w, err := gen.NewWorkload(rng, dataset, gen.WorkloadConfig{
		Size: 80, Type: ftv.Supergraph, PoolSize: 20,
		ZipfS: 1.2, ChainFrac: 0.6, ChainLen: 3, MinEdges: 3, MaxEdges: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range w.Queries {
		res, err := c.Execute(q.G, q.Type)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		base := c.Method().Run(q.G, q.Type)
		if !res.Answers.Equal(base.Answers) {
			t.Fatalf("query %d: answers diverge", i)
		}
		assertResultInvariants(t, res)
	}
	if snap := c.Stats(); snap.SubHits+snap.SuperHits+snap.ExactHits == 0 {
		t.Error("no hits on containment-chained supergraph workload")
	}
}

func TestCacheCorrectnessMixedWorkload(t *testing.T) {
	dataset := testDataset(7, 30)
	c := testCache(t, dataset, nil)
	rng := rand.New(rand.NewSource(8))
	w, err := gen.NewWorkload(rng, dataset, gen.WorkloadConfig{
		Size: 80, Mixed: true, PoolSize: 20,
		ZipfS: 1.3, ChainFrac: 0.5, ChainLen: 3, MinEdges: 3, MaxEdges: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range w.Queries {
		if _, err := c.Execute(q.G, q.Type); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
}

func assertResultInvariants(t *testing.T, res *Result) {
	t.Helper()
	// Sure ⊆ Answers; Survivors ⊆ Answers; Sure ∪ Survivors == Answers.
	if !res.Sure.SubsetOf(res.Answers) {
		t.Fatal("Sure ⊄ Answers")
	}
	if !res.Survivors.SubsetOf(res.Answers) {
		t.Fatal("Survivors ⊄ Answers")
	}
	u := res.Sure.Clone()
	u.Or(res.Survivors)
	if !u.Equal(res.Answers) {
		t.Fatal("Sure ∪ Survivors != Answers")
	}
	// Excluded graphs must not be answers.
	if res.Excluded.IntersectionCount(res.Answers) != 0 {
		t.Fatal("Excluded ∩ Answers non-empty")
	}
	if res.Tests > res.BaseCandidates {
		t.Fatalf("tests %d exceed base candidates %d", res.Tests, res.BaseCandidates)
	}
	if res.Tests != res.Candidates {
		t.Fatalf("tests %d != candidates %d", res.Tests, res.Candidates)
	}
	if res.SavedTests() != res.BaseCandidates-res.Tests {
		t.Fatal("SavedTests inconsistent")
	}
	if res.TestSpeedup() < 1 && res.Tests > 0 {
		t.Fatalf("speedup %v < 1", res.TestSpeedup())
	}
}

func TestExactHitAfterAdmission(t *testing.T) {
	dataset := testDataset(9, 25)
	c := testCache(t, dataset, func(cfg *Config) { cfg.Window = 2 })
	rng := rand.New(rand.NewSource(10))
	q := gen.ExtractConnectedSubgraph(rng, dataset[0], 5)

	res1, err := c.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if res1.ExactHit {
		t.Fatal("first execution cannot be a hit")
	}
	// Resubmit the identical query: the entry sits in the window (size-2
	// window, 1 pending) and must be found there.
	res2, err := c.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.ExactHit {
		t.Fatal("resubmission should be an exact hit")
	}
	if res2.Tests != 0 {
		t.Errorf("exact hit ran %d tests, want 0", res2.Tests)
	}
	if !res2.Answers.Equal(res1.Answers) {
		t.Error("exact hit answers differ")
	}
	if res2.BaseCandidates != res1.BaseCandidates {
		t.Errorf("exact hit base candidates %d, want %d", res2.BaseCandidates, res1.BaseCandidates)
	}
	// A permuted copy of q must also hit (isomorphism, not equality).
	perm := rng.Perm(q.N())
	labels := make([]graph.Label, q.N())
	for old, nw := range perm {
		labels[nw] = q.Label(old)
	}
	var edges [][2]int
	for _, e := range q.Edges() {
		edges = append(edges, [2]int{perm[e[0]], perm[e[1]]})
	}
	qp := graph.MustNew(labels, edges)
	res3, err := c.Execute(qp, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !res3.ExactHit {
		t.Error("permuted resubmission should be an exact hit")
	}
	// Exact hits of the wrong type must not fire.
	res4, err := c.Execute(q, ftv.Supergraph)
	if err != nil {
		t.Fatal(err)
	}
	if res4.ExactHit {
		t.Error("type-mismatched query must not exact-hit")
	}
}

func TestSubCaseHitDeliversSure(t *testing.T) {
	dataset := testDataset(11, 30)
	c := testCache(t, dataset, func(cfg *Config) { cfg.Window = 1 }) // admit immediately
	rng := rand.New(rand.NewSource(12))

	// Execute a big query h; then a subquery q ⊑ h. For subgraph queries
	// the sub-case hit delivers S = A(h).
	h := gen.ExtractConnectedSubgraph(rng, dataset[0], 10)
	resH, err := c.Execute(h, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	q := gen.ExtractConnectedSubgraph(rng, h, 5)
	resQ, err := c.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if resQ.ExactHit {
		t.Skip("q happened to be isomorphic to h; seed-dependent, skip")
	}
	if resQ.SubHitCount() == 0 {
		t.Fatal("expected a sub-case hit")
	}
	if !resH.Answers.SubsetOf(resQ.Sure) {
		t.Error("S should contain A(h)")
	}
	if !resQ.Sure.SubsetOf(resQ.Answers) {
		t.Error("S must be sound")
	}
}

func TestSuperCaseHitPrunes(t *testing.T) {
	dataset := testDataset(13, 30)
	c := testCache(t, dataset, func(cfg *Config) { cfg.Window = 1 })
	rng := rand.New(rand.NewSource(14))

	// Execute a small query h; then a supergraph q ⊒ h built by extracting
	// a larger pattern that contains h's edges. Use nested extraction:
	// h ⊑ q by construction when h is extracted from q.
	q := gen.ExtractConnectedSubgraph(rng, dataset[0], 10)
	h := gen.ExtractConnectedSubgraph(rng, q, 5)

	resH, err := c.Execute(h, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	resQ, err := c.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if resQ.ExactHit {
		t.Skip("h isomorphic to q; seed-dependent, skip")
	}
	if resQ.SuperHitCount() == 0 {
		t.Fatal("expected a super-case hit")
	}
	// Candidates must be within A(h); excluded = C_M \ A(h) non-answers.
	if resQ.Excluded.IntersectionCount(resQ.Answers) != 0 {
		t.Error("excluded graphs leaked into answers")
	}
	// Everything excluded must be outside A(h).
	if resQ.Excluded.IntersectionCount(resH.Answers) != 0 {
		t.Error("exclusions must come from outside A(h)")
	}
}

func TestWindowAdmissionBoundary(t *testing.T) {
	dataset := testDataset(15, 20)
	// One shard: its admission window IS the configured W, so the classic
	// boundary semantics (stage W-1, admit all at W) hold exactly. At
	// higher shard counts the default engine splits W across the shards.
	c := testCache(t, dataset, func(cfg *Config) { cfg.Window = 5; cfg.Shards = 1 })
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 4; i++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[i], 4+i)
		if _, err := c.Execute(q, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("entries admitted before window boundary: %d", c.Len())
	}
	if c.WindowLen() != 4 {
		t.Fatalf("window length = %d, want 4", c.WindowLen())
	}
	q := gen.ExtractConnectedSubgraph(rng, dataset[10], 8)
	if _, err := c.Execute(q, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 5 || c.WindowLen() != 0 {
		t.Fatalf("after boundary: len=%d window=%d, want 5/0", c.Len(), c.WindowLen())
	}
	if snap := c.Stats(); snap.WindowTurns != 1 || snap.Admissions != 5 {
		t.Errorf("monitor: %+v", snap)
	}
}

// The atomic residency account must track the true resident entry/byte
// totals exactly through window turns — including turns whose second
// eviction pass runs (regression: stale victims once double-decremented
// the account), and through warm-cache state restores (regression: ReadState once cleared
// the shards without resetting the account, double-counting forever).
func TestResidencyAccountingStaysExact(t *testing.T) {
	dataset := testDataset(23, 25)
	for _, shards := range []int{1, 4, 8} {
		c := testCache(t, dataset, func(cfg *Config) {
			cfg.Capacity = 3 // tiny: every turn double-evicts
			cfg.Window = 8
			cfg.Shards = shards
			cfg.SelfCheck = false
		})
		rng := rand.New(rand.NewSource(24))
		for i := 0; i < 30; i++ {
			q := gen.ExtractConnectedSubgraph(rng, dataset[i%len(dataset)], 3+i%5)
			if _, err := c.Execute(q, ftv.Subgraph); err != nil {
				t.Fatal(err)
			}
			checkResidency(t, c, fmt.Sprintf("shards=%d query %d", shards, i))
		}
		// Warm-cache restore: the account must be rebuilt, not added to.
		var buf bytes.Buffer
		if err := c.WriteState(&buf); err != nil {
			t.Fatal(err)
		}
		if err := c.ReadState(&buf); err != nil {
			t.Fatal(err)
		}
		checkResidency(t, c, fmt.Sprintf("shards=%d after warm restore", shards))
		// And the account must still steer eviction correctly afterwards.
		for i := 0; i < 10; i++ {
			q := gen.ExtractConnectedSubgraph(rng, dataset[i%len(dataset)], 4+i%4)
			if _, err := c.Execute(q, ftv.Subgraph); err != nil {
				t.Fatal(err)
			}
			checkResidency(t, c, fmt.Sprintf("shards=%d post-restore query %d", shards, i))
		}
	}
}

func TestCapacityEviction(t *testing.T) {
	dataset := testDataset(17, 25)
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Capacity = 6
		cfg.Window = 3
		cfg.Policy = NewLRU()
	})
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 12; i++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[i%len(dataset)], 3+i%6)
		if _, err := c.Execute(q, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() > 6 {
		t.Fatalf("cache size %d exceeds capacity 6", c.Len())
	}
	if snap := c.Stats(); snap.Evictions == 0 {
		t.Error("expected evictions")
	}
}

func TestMemoryBudgetEviction(t *testing.T) {
	dataset := testDataset(19, 20)
	// One shard: the strict budget bound then holds after every turn.
	// With more shards the budget is still global, but a turning shard
	// evicts only its own residents (keeping at least one), so the bound
	// is enforced only as the busy shards turn.
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Capacity = 100
		cfg.Window = 2
		cfg.MemoryBudget = 4096
		cfg.Shards = 1
	})
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 16; i++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[i%len(dataset)], 4+i%5)
		if _, err := c.Execute(q, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
	if c.Bytes() > 4096 {
		t.Errorf("cache bytes %d exceed budget 4096", c.Bytes())
	}
	if c.Len() == 0 {
		t.Error("budget eviction should keep at least one entry")
	}
}

// A hostile custom policy returning garbage must not corrupt the cache.
type hostilePolicy struct{}

func (hostilePolicy) Name() string                 { return "hostile" }
func (hostilePolicy) UpdateCacheStaInfo(*HitEvent) {}
func (hostilePolicy) OnWindowTurn()                {}
func (hostilePolicy) ReplacedContent(entries []*Entry, x int) []int {
	return []int{-5, 10000, 0, 0, 0} // out of range + duplicates
}

func TestHostilePolicySanitized(t *testing.T) {
	dataset := testDataset(21, 20)
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Capacity = 4
		cfg.Window = 2
		cfg.Policy = hostilePolicy{}
	})
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 12; i++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[i%len(dataset)], 3+i%5)
		if _, err := c.Execute(q, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() > 4 {
		t.Fatalf("hostile policy broke capacity: %d", c.Len())
	}
}

func TestMonitorLedgerConsistency(t *testing.T) {
	dataset := testDataset(25, 30)
	c := testCache(t, dataset, nil)
	rng := rand.New(rand.NewSource(26))
	var wantExecuted, wantSaved int64
	for i := 0; i < 40; i++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[i%len(dataset)], 3+i%7)
		res, err := c.Execute(q, ftv.Subgraph)
		if err != nil {
			t.Fatal(err)
		}
		wantExecuted += int64(res.Tests)
		wantSaved += int64(res.SavedTests())
	}
	snap := c.Stats()
	if snap.TestsExecuted != wantExecuted {
		t.Errorf("executed ledger %d != %d", snap.TestsExecuted, wantExecuted)
	}
	if snap.TestsSaved != wantSaved {
		t.Errorf("saved ledger %d != %d", snap.TestsSaved, wantSaved)
	}
}

func TestHitBudgetsHonored(t *testing.T) {
	dataset := testDataset(27, 30)
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Window = 1
		cfg.MaxSubHits = 1
		cfg.MaxSuperHits = 1
	})
	rng := rand.New(rand.NewSource(28))
	// Build a family of nested patterns so many hits are available.
	big := gen.ExtractConnectedSubgraph(rng, dataset[0], 12)
	for i := 0; i < 6; i++ {
		mid := gen.ExtractConnectedSubgraph(rng, big, 6+i)
		if _, err := c.Execute(mid, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Execute(gen.ExtractConnectedSubgraph(rng, big, 8), ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if res.SubHitCount() > 1 || res.SuperHitCount() > 1 {
		t.Errorf("hit budgets exceeded: sub=%d super=%d", res.SubHitCount(), res.SuperHitCount())
	}
}

func TestZeroHitBudgetsDisableHits(t *testing.T) {
	dataset := testDataset(29, 20)
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Window = 1
		cfg.MaxSubHits = 0
		cfg.MaxSuperHits = 0
	})
	rng := rand.New(rand.NewSource(30))
	q := gen.ExtractConnectedSubgraph(rng, dataset[0], 8)
	if _, err := c.Execute(q, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(gen.ExtractConnectedSubgraph(rng, q, 4), ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if res.SubHitCount()+res.SuperHitCount() != 0 {
		t.Error("hits detected despite zero budgets")
	}
	// Exact matches still work (separate mechanism).
	resExact, err := c.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !resExact.ExactHit {
		t.Error("exact hit should survive zero sub/super budgets")
	}
}

func TestEntriesSnapshotIsolated(t *testing.T) {
	dataset := testDataset(31, 15)
	c := testCache(t, dataset, func(cfg *Config) { cfg.Window = 1 })
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 3; i++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[i], 4)
		if _, err := c.Execute(q, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
	es := c.Entries()
	if len(es) != 3 {
		t.Fatalf("entries = %d", len(es))
	}
	es[0] = nil // mutating the copy must not affect the cache
	if c.Entries()[0] == nil {
		t.Error("Entries returned internal slice")
	}
}

func TestResultOwnsItsBitsets(t *testing.T) {
	dataset := testDataset(33, 15)
	c := testCache(t, dataset, func(cfg *Config) { cfg.Window = 1 })
	rng := rand.New(rand.NewSource(34))
	q := gen.ExtractConnectedSubgraph(rng, dataset[0], 5)
	res1, err := c.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	res1.Answers.Clear() // caller mutation
	res2, err := c.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.ExactHit {
		t.Fatal("want exact hit")
	}
	if res2.Answers.Empty() && !res1.Answers.Empty() {
		t.Error("cached answers were corrupted by caller mutation")
	}
	base := c.Method().Run(q, ftv.Subgraph)
	if !res2.Answers.Equal(base.Answers) {
		t.Error("cached answers corrupted")
	}
}

func TestDifferentPoliciesEvictDifferently(t *testing.T) {
	// The Figure 2(c) shape: run one workload under each policy and
	// compare the surviving entry sets; at least one pair must differ.
	dataset := testDataset(35, 30)
	run := func(p Policy) map[graph.Fingerprint]bool {
		// One shard: the policy then ranks the full resident set at each
		// turn — the canonical Figure 2(c) comparison. With more shards
		// victims are ranked within the turning shard only, which blurs
		// the inter-policy differences this test asserts.
		c := testCache(t, dataset, func(cfg *Config) {
			cfg.Capacity = 8
			cfg.Window = 4
			cfg.Policy = p
			cfg.Shards = 1
		})
		rng := rand.New(rand.NewSource(36)) // same workload for all policies
		w, err := gen.NewWorkload(rng, dataset, gen.WorkloadConfig{
			Size: 60, Type: ftv.Subgraph, PoolSize: 30,
			ZipfS: 1.3, ChainFrac: 0.5, ChainLen: 3, MinEdges: 3, MaxEdges: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range w.Queries {
			if _, err := c.Execute(q.G, q.Type); err != nil {
				t.Fatal(err)
			}
		}
		out := map[graph.Fingerprint]bool{}
		for _, e := range c.Entries() {
			out[e.Fingerprint] = true
		}
		return out
	}
	sets := map[string]map[graph.Fingerprint]bool{
		"lru": run(NewLRU()),
		"pop": run(NewPOP()),
		"pin": run(NewPIN()),
		"hd":  run(NewHD()),
	}
	allEqual := true
	var ref map[graph.Fingerprint]bool
	for _, s := range sets {
		if ref == nil {
			ref = s
			continue
		}
		if len(s) != len(ref) {
			allEqual = false
			break
		}
		for fp := range s {
			if !ref[fp] {
				allEqual = false
			}
		}
	}
	if allEqual {
		t.Error("all policies evicted identically on a differentiating workload")
	}
}

func TestEmptyAnswerQuery(t *testing.T) {
	dataset := testDataset(37, 15)
	c := testCache(t, dataset, func(cfg *Config) { cfg.Window = 1 })
	// A pattern with labels far outside the alphabet: no answers anywhere.
	q := graph.MustNew([]graph.Label{900, 901}, [][2]int{{0, 1}})
	res, err := c.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answers.Empty() {
		t.Error("impossible pattern should have no answers")
	}
	// Resubmission exact-hits with zero work.
	res2, err := c.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.ExactHit || !res2.Answers.Empty() {
		t.Error("empty-answer query should still be cached and hit")
	}
}

func TestSupergraphChainHits(t *testing.T) {
	dataset := testDataset(39, 20)
	c := testCache(t, dataset, func(cfg *Config) { cfg.Window = 1 })
	rng := rand.New(rand.NewSource(40))
	sampler := gen.NewAIDSLabelSampler(6)

	// Supergraph chain: q1 ⊑ q2; supergraph query q2 first (cached), then
	// q1 ⊑ q2 means for q1 the cached q2 is a SUPERgraph: A(q1) ⊆ A(q2):
	// sub-case hit prunes. Reverse order gives super-case answers.
	q1 := gen.Augment(rng, dataset[0], 1, 1, sampler)
	q2 := gen.Augment(rng, q1, 2, 1, sampler)

	if _, err := c.Execute(q2, ftv.Supergraph); err != nil {
		t.Fatal(err)
	}
	res1, err := c.Execute(q1, ftv.Supergraph)
	if err != nil {
		t.Fatal(err)
	}
	if res1.SubHitCount() == 0 {
		t.Error("expected sub-case (pruning) hit for nested supergraph query")
	}

	// Fresh cache, reversed order: small first, then big → super-case hit
	// delivering sure answers.
	c2 := testCache(t, dataset, func(cfg *Config) { cfg.Window = 1 })
	resSmall, err := c2.Execute(q1, ftv.Supergraph)
	if err != nil {
		t.Fatal(err)
	}
	resBig, err := c2.Execute(q2, ftv.Supergraph)
	if err != nil {
		t.Fatal(err)
	}
	if resBig.SuperHitCount() == 0 {
		t.Error("expected super-case (answer) hit")
	}
	if !resSmall.Answers.SubsetOf(resBig.Sure) {
		t.Error("super-case hit should deliver A(h) as sure answers")
	}
}

func TestBytesAccounting(t *testing.T) {
	dataset := testDataset(41, 15)
	c := testCache(t, dataset, func(cfg *Config) { cfg.Window = 1; cfg.Capacity = 3 })
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 8; i++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[i%len(dataset)], 4+i%4)
		if _, err := c.Execute(q, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
	// Recompute the ledger from scratch: static bytes per entry plus each
	// distinct answer set once — interning can collapse equal sets across
	// entries, so summing Entry.Bytes would overcount the shared ones.
	want := 0
	seen := make(map[*bitset.Set]bool)
	for _, e := range c.Entries() {
		a := e.Answers()
		want += e.Bytes() - a.Bytes()
		if !seen[a] {
			seen[a] = true
			want += a.Bytes()
		}
	}
	if got := c.Bytes(); got != want {
		t.Errorf("bytes ledger %d != recomputed %d", got, want)
	}
}
