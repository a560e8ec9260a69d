package core

import (
	"fmt"
	"math/rand"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// Cases named shards=N keep the names they had when the resident set was
// partitioned into N shards. With one resident set, N picks the case's
// workload seed instead (shardsSeed), so each case drives its own stream
// through the same kernel.
func shardsSeed(base int64, shards int) int64 { return base + int64(shards) }

// Driven sequentially over the same workload, the default cache must be
// indistinguishable from one with Config.Serialized set — byte-identical
// answer sets, identical hit/miss classifications, identical
// admission/eviction decisions — under every timing-independent policy
// (PIN, LRU, FIFO, POP: PINC/HD rank victims by measured verification
// nanoseconds, which legitimately differ between two physical runs even
// of the very same engine). The /indexOff rows set Config.IndexOff on the
// compared side, so both inert fields are pinned against each other.
func TestShardedEquivalentToSerialized(t *testing.T) {
	for _, indexOff := range []bool{false, true} {
		policies := []string{"pin", "lru", "fifo", "pop"}
		suffix := ""
		if indexOff {
			policies, suffix = []string{"pin"}, "/indexOff"
		}
		for _, policy := range policies {
			for _, shards := range []int{2, 8, 32} {
				t.Run(fmt.Sprintf("%s/shards=%d%s", policy, shards, suffix), func(t *testing.T) {
					w := equivalenceWorkload(t, shardsSeed(60, shards), 150, 30)
					ref := equivalenceCache(t, w.dataset, policy, 5, func(cfg *Config) { cfg.Serialized = true })
					other := equivalenceCache(t, w.dataset, policy, 5, func(cfg *Config) { cfg.IndexOff = indexOff })
					checkIndistinguishable(t, w.queries, ref, other)
				})
			}
		}
	}
}

// Config.Serialized, SharedWindow and IndexOff are declared only for the
// benchmark harness: a cache built with any one of them set must behave
// exactly like one built with none. The policy is timing-independent
// (PIN): PINC/HD rank victims by measured verification nanoseconds, which
// legitimately differ between two physical runs even of the very same
// engine.
func TestSharedWindowFieldHasNoEffect(t *testing.T) {
	w := equivalenceWorkload(t, 52, 150, 30)
	for _, field := range []struct {
		name string
		set  func(*Config)
	}{
		{"Serialized", func(cfg *Config) { cfg.Serialized = true }},
		{"SharedWindow", func(cfg *Config) { cfg.SharedWindow = true }},
		{"IndexOff", func(cfg *Config) { cfg.IndexOff = true }},
	} {
		t.Run(field.name, func(t *testing.T) {
			ref := equivalenceCache(t, w.dataset, "pin", 5, func(*Config) {})
			checkIndistinguishable(t, w.queries, ref, equivalenceCache(t, w.dataset, "pin", 5, field.set))
		})
	}
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
		s.WindowTurnNs, s.MutationHoldNs = 0, 0
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
