package core

import (
	"fmt"
	"math/rand"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// The sharding equivalence property: driven sequentially over the same
// workload, a sharded cache must be indistinguishable from the serialized
// single-shard engine — byte-identical answer sets, identical hit/miss
// classifications, identical admission/eviction decisions — regardless of
// the shard count. This is what licenses the lock-striping: the shards
// are an implementation detail of the kernel, never visible in its
// semantics.
//
// Policies here are restricted to timing-independent ones (PIN, LRU,
// FIFO, POP): PINC/HD rank victims by measured verification nanoseconds,
// which legitimately differ between two physical runs even of the very
// same engine.
func TestShardedEquivalentToSerialized(t *testing.T) {
	w := equivalenceWorkload(t, 52, 150, 30)
	build := func(policy string, indexOff bool) func(shards int, serialized bool) *Cache {
		return func(shards int, serialized bool) *Cache {
			return equivalenceCache(t, w.dataset, policy, 5, func(cfg *Config) {
				cfg.Shards = shards
				cfg.Serialized = serialized
				cfg.IndexOff = indexOff
			})
		}
	}
	for _, policy := range []string{"pin", "lru", "fifo", "pop"} {
		for _, shards := range []int{2, 8, 32} {
			t.Run(fmt.Sprintf("%s/shards=%d", policy, shards), func(t *testing.T) {
				b := build(policy, false)
				checkIndistinguishable(t, w.queries, b(1, true), b(shards, false))
			})
		}
	}
	// The IndexOff baseline scan must be just as shard-count-independent.
	for _, shards := range []int{2, 8, 32} {
		t.Run(fmt.Sprintf("pin/shards=%d/indexOff", shards), func(t *testing.T) {
			b := build("pin", true)
			checkIndistinguishable(t, w.queries, b(1, true), b(shards, false))
		})
	}
}

// Shard-count independence of the default engine itself (no Serialized
// reference): answers, hit classes, entry IDs, utilities and counters are
// identical at 1, 4 and 32 shards.
func TestShardCountIndependence(t *testing.T) {
	w := equivalenceWorkload(t, 53, 150, 40)
	for _, policy := range []string{"pin", "lru", "fifo", "pop"} {
		for _, shards := range []int{4, 32} {
			t.Run(fmt.Sprintf("%s/shards=%d", policy, shards), func(t *testing.T) {
				build := func(n int) *Cache {
					return equivalenceCache(t, w.dataset, policy, 6, func(cfg *Config) { cfg.Shards = n })
				}
				checkIndistinguishable(t, w.queries, build(1), build(shards))
			})
		}
	}
}

// Config.SharedWindow is declared only for the frozen benchmark harness:
// a cache built with it set must behave exactly like one built without.
func TestSharedWindowFieldHasNoEffect(t *testing.T) {
	w := equivalenceWorkload(t, 52, 150, 30)
	build := func(set bool) *Cache {
		return equivalenceCache(t, w.dataset, "pin", 5, func(cfg *Config) { cfg.SharedWindow = set })
	}
	checkIndistinguishable(t, w.queries, build(false), build(true))
}

type equivalenceInput struct {
	dataset []*graph.Graph
	queries []gen.Query
}

// equivalenceWorkload is the suite's mixed, zipf-skewed, chain-heavy
// stream: exact, sub and super hits all occur.
func equivalenceWorkload(t *testing.T, seed int64, size, pool int) equivalenceInput {
	t.Helper()
	dataset := testDataset(51, 40)
	w, err := gen.NewWorkload(rand.New(rand.NewSource(seed)), dataset, gen.WorkloadConfig{
		Size: size, Mixed: true, PoolSize: pool,
		ZipfS: 1.2, ChainFrac: 0.6, ChainLen: 3, MinEdges: 3, MaxEdges: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return equivalenceInput{dataset, w.Queries}
}

// equivalenceCache builds a small cache (plenty of window turns and
// evictions) over its own method instance.
func equivalenceCache(t *testing.T, dataset []*graph.Graph, policy string, window int, mutate func(*Config)) *Cache {
	t.Helper()
	p, err := NewPolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Capacity = 20
	cfg.Window = window
	cfg.Policy = p
	mutate(&cfg)
	return MustNew(ftv.NewGGSXMethod(dataset, 3), cfg)
}

// checkIndistinguishable drives both caches through the stream in
// lock-step and fails on any observable difference.
func checkIndistinguishable(t *testing.T, queries []gen.Query, ref, other *Cache) {
	t.Helper()
	for i, q := range queries {
		rs, err := ref.Execute(q.G, q.Type)
		if err != nil {
			t.Fatalf("reference query %d: %v", i, err)
		}
		rp, err := other.Execute(q.G, q.Type)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		// Byte-identical results…
		if !rs.Answers.Equal(rp.Answers) {
			t.Fatalf("query %d: answer sets diverge", i)
		}
		if !rs.Sure.Equal(rp.Sure) || !rs.Excluded.Equal(rp.Excluded) || !rs.Survivors.Equal(rp.Survivors) {
			t.Fatalf("query %d: S/S'/R sets diverge", i)
		}
		// …and identical hit/miss classification.
		if rs.ExactHit != rp.ExactHit {
			t.Fatalf("query %d: exact-hit classification diverges (%v vs %v)", i, rs.ExactHit, rp.ExactHit)
		}
		if rs.Tests != rp.Tests || rs.BaseCandidates != rp.BaseCandidates {
			t.Fatalf("query %d: tests %d/%d vs %d/%d", i, rs.Tests, rs.BaseCandidates, rp.Tests, rp.BaseCandidates)
		}
		if len(rs.Hits) != len(rp.Hits) {
			t.Fatalf("query %d: hit counts diverge (%d vs %d)", i, len(rs.Hits), len(rp.Hits))
		}
		for j := range rs.Hits {
			if rs.Hits[j] != rp.Hits[j] {
				t.Fatalf("query %d hit %d: %+v vs %+v", i, j, rs.Hits[j], rp.Hits[j])
			}
		}
	}

	// Final cache contents must match entry for entry.
	es, ep := ref.Entries(), other.Entries()
	if len(es) != len(ep) {
		t.Fatalf("resident entries diverge: %d vs %d", len(es), len(ep))
	}
	for i := range es {
		if es[i].ID != ep[i].ID {
			t.Fatalf("entry %d: ID %d vs %d", i, es[i].ID, ep[i].ID)
		}
		if !es[i].Answers().Equal(ep[i].Answers()) {
			t.Fatalf("entry %d: answer sets diverge", i)
		}
		if es[i].Hits != ep[i].Hits || es[i].SavedTests != ep[i].SavedTests {
			t.Fatalf("entry %d: utilities diverge", i)
		}
	}
	if ref.Len() != other.Len() || ref.Bytes() != other.Bytes() || ref.WindowLen() != other.WindowLen() {
		t.Fatal("resident accounting diverges")
	}

	// Every count in the monitor must agree (times are physical, exempt).
	ss, sp := ref.Stats(), other.Stats()
	for _, s := range []*Snapshot{&ss, &sp} {
		s.FilterTime, s.HitTime, s.VerifyTime = 0, 0, 0
		s.WindowTurnNs, s.MutationWaitNs, s.MutationHoldNs = 0, 0, 0
	}
	if ss != sp {
		t.Fatalf("monitor counters diverge:\nreference %+v\nother     %+v", ss, sp)
	}
	if ss.Evictions == 0 || ss.WindowTurns == 0 {
		t.Error("workload too tame: no evictions/window turns exercised")
	}
	if ss.ExactHits == 0 || ss.SubHits+ss.SuperHits == 0 {
		t.Error("workload too tame: no hits exercised")
	}
}

// The index equivalence property: with the feature index on, every answer
// set must be byte-identical to the IndexOff baseline's at every shard
// count — the index may only ever discard provable non-hits, so the two
// engines can classify hits differently within the VF2 attempt budget
// (and hence age different cache contents), but both always return the
// exact answer set. The index must also do strictly LESS hit-detection
// work: fewer dominance merges, no more q↔h iso tests, and a non-zero
// index-pruned count.
func TestIndexedEquivalentToUnindexed(t *testing.T) {
	w := equivalenceWorkload(t, 52, 150, 30)
	build := func(shards int, indexOff bool) *Cache {
		// pin is timing-independent: runs are reproducible
		return equivalenceCache(t, w.dataset, "pin", 5, func(cfg *Config) {
			cfg.Shards = shards
			cfg.IndexOff = indexOff
		})
	}

	baseline := build(1, true)
	var baseAnswers []string
	for i, q := range w.queries {
		res, err := baseline.Execute(q.G, q.Type)
		if err != nil {
			t.Fatalf("baseline query %d: %v", i, err)
		}
		baseAnswers = append(baseAnswers, res.Answers.String())
	}
	bs := baseline.Stats()

	for _, shards := range []int{1, 2, 8, 32} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			indexed := build(shards, false)
			for i, q := range w.queries {
				res, err := indexed.Execute(q.G, q.Type)
				if err != nil {
					t.Fatalf("indexed query %d: %v", i, err)
				}
				if got := res.Answers.String(); got != baseAnswers[i] {
					t.Fatalf("query %d: indexed answers %s, baseline %s", i, got, baseAnswers[i])
				}
			}
			is := indexed.Stats()
			if is.HitIndexPruned == 0 {
				t.Error("index pruned nothing: summaries never fired")
			}
			if is.HitFullChecks >= bs.HitFullChecks {
				t.Errorf("index did not reduce dominance merges: %d (indexed) vs %d (baseline)",
					is.HitFullChecks, bs.HitFullChecks)
			}
			if is.HitDetectionTests > bs.HitDetectionTests {
				t.Errorf("index increased cache-side iso tests: %d (indexed) vs %d (baseline)",
					is.HitDetectionTests, bs.HitDetectionTests)
			}
		})
	}
}
