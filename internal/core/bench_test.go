package core

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// Hot-path microbenchmarks for the three Execute classes — exact hit,
// indexed miss, sub/super hit — with allocation reporting. These are the
// profiles behind the hot-path memory discipline (see doc.go): run with
//
//	go test -bench 'BenchmarkExecute' -benchmem ./internal/core/
//
// and compare allocs/op across changes. The companion alloc_test.go pins
// hard budgets so regressions fail in CI, not in a profile nobody reads.

// benchStreams bundles a warmed cache with pre-generated query streams
// whose members are pairwise non-isomorphic (distinct WL fingerprints), so
// cycling through a stream never turns a miss into an exact hit until the
// stream wraps.
type benchStreams struct {
	cache *Cache
	// exact is a query already staged in the cache: re-executing it takes
	// the exact-hit fast path.
	exact *graph.Graph
	// misses are distinct patterns extracted from distinct dataset graphs:
	// executing stream members in order exercises the full miss pipeline
	// (filter, hit detection, verification, admission).
	misses []*graph.Graph
	// subhits are distinct proper subgraphs of anchor, a large cached
	// pattern: each one misses exact match but collects a sub-case hit.
	subhits []*graph.Graph
}

func newBenchStreams(tb testing.TB, datasetSize, streamLen int, mutate func(*Config)) *benchStreams {
	tb.Helper()
	rng := rand.New(rand.NewSource(97))
	dataset := gen.Molecules(rng, datasetSize, gen.DefaultMoleculeConfig())
	method := ftv.NewGGSXMethod(dataset, 3)
	cfg := DefaultConfig()
	cfg.Capacity = 256
	cfg.Window = 16
	if mutate != nil {
		cfg = DefaultConfig()
		cfg.Capacity = 256
		cfg.Window = 16
		mutate(&cfg)
	}
	c, err := New(method, cfg)
	if err != nil {
		tb.Fatal(err)
	}

	seen := map[graph.Fingerprint]bool{}
	distinct := func(g *graph.Graph) bool {
		fp := g.WLFingerprint(3)
		if seen[fp] {
			return false
		}
		seen[fp] = true
		return true
	}

	// The anchor: one large pattern, executed so it is cached (pending or
	// admitted — findExact consults both), whose subgraphs sub-hit it.
	anchor := gen.ExtractConnectedSubgraph(rng, dataset[0], 14)
	distinct(anchor)
	if _, err := c.Execute(anchor, ftv.Subgraph); err != nil {
		tb.Fatal(err)
	}

	bs := &benchStreams{cache: c, exact: anchor}
	for i := 1; len(bs.misses) < streamLen && i < 64*streamLen; i++ {
		src := dataset[i%len(dataset)]
		g := gen.ExtractConnectedSubgraph(rng, src, 4+rng.Intn(8))
		if distinct(g) {
			bs.misses = append(bs.misses, g)
		}
	}
	// A small anchor has a bounded space of distinct subgraphs, so this
	// stream is best-effort: stop after a fixed attempt budget and let
	// callers cycle whatever was found.
	for i := 0; len(bs.subhits) < streamLen && i < 64*streamLen; i++ {
		g := gen.ExtractConnectedSubgraph(rng, anchor, 3+rng.Intn(6))
		if distinct(g) {
			bs.subhits = append(bs.subhits, g)
		}
	}
	if len(bs.misses) == 0 || len(bs.subhits) == 0 {
		tb.Fatal("bench stream generation produced no distinct patterns")
	}
	return bs
}

func BenchmarkExecuteExactHit(b *testing.B) {
	bs := newBenchStreams(b, 200, 1, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bs.cache.Execute(bs.exact, ftv.Subgraph)
		if err != nil {
			b.Fatal(err)
		}
		if !res.ExactHit {
			b.Fatal("expected an exact hit")
		}
	}
}

// BenchmarkExecuteExactHitParallel is the exact hit under contention:
// GOMAXPROCS goroutines issue zipf-skewed exact hits over 64 admitted
// patterns, so ns/op across -cpu 1,2,4,... shows whether the path scales
// (no shared line written per hit) rather than only how fast one
// goroutine runs it.
func BenchmarkExecuteExactHitParallel(b *testing.B) {
	const patterns = 64
	bs := newBenchStreams(b, 200, patterns, nil)
	if len(bs.misses) < patterns {
		b.Fatalf("stream generation found %d distinct patterns, want %d", len(bs.misses), patterns)
	}
	hot := bs.misses[:patterns]
	for _, q := range hot { // 64 staged < Capacity 256: all stay cached
		if _, err := bs.cache.Execute(q, ftv.Subgraph); err != nil {
			b.Fatal(err)
		}
	}
	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		zipf := rand.NewZipf(rng, 1.2, 1, patterns-1)
		for pb.Next() {
			res, err := bs.cache.Execute(hot[zipf.Uint64()], ftv.Subgraph)
			if err != nil || !res.ExactHit {
				b.Errorf("exact=%v err=%v, want an exact hit", res != nil && res.ExactHit, err)
				return
			}
		}
	})
}

func BenchmarkExecuteIndexedMiss(b *testing.B) {
	bs := newBenchStreams(b, 200, 2048, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bs.cache.Execute(bs.misses[i%len(bs.misses)], ftv.Subgraph); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteSubSuperHit(b *testing.B) {
	bs := newBenchStreams(b, 200, 2048, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bs.cache.Execute(bs.subhits[i%len(bs.subhits)], ftv.Subgraph); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteMissSerialized is the pre-sharding engine on the miss
// stream — the baseline that shows what the lock-striped kernel and the
// allocation discipline buy on one thread.
func BenchmarkExecuteMissSerialized(b *testing.B) {
	bs := newBenchStreams(b, 200, 2048, func(cfg *Config) {
		cfg.Shards = 1
		cfg.Serialized = true
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bs.cache.Execute(bs.misses[i%len(bs.misses)], ftv.Subgraph); err != nil {
			b.Fatal(err)
		}
	}
}

// The off-path layers: what a live dataset mutation and a window turn
// cost on a full cache at the benchmark harness's size (Capacity 1 000).
// Both stop the world, so their ns/op is time no query proceeds.
//
//	go test -run '^$' -bench 'Warm|WindowTurn' -benchmem ./internal/core/

// newWarmBench returns a full Capacity-1000 cache over 2 000 molecules
// with its unused miss stream, plus spare molecules to add.
func newWarmBench(b *testing.B, window int) (*benchStreams, []*graph.Graph) {
	b.Helper()
	bs := newBenchStreams(b, 2000, 2048, func(cfg *Config) {
		cfg.Capacity = 1000
		cfg.Window = window
	})
	for bs.cache.Len() < 1000 {
		if len(bs.misses) == 0 {
			b.Fatal("miss stream ran out before the cache filled")
		}
		if _, err := bs.cache.Execute(bs.misses[0], ftv.Subgraph); err != nil {
			b.Fatal(err)
		}
		bs.misses = bs.misses[1:]
	}
	spare := gen.Molecules(rand.New(rand.NewSource(98)), 256, gen.DefaultMoleculeConfig())
	return bs, spare
}

// BenchmarkAddGraphWarm is one eager AddGraph: a COW filter insert, then
// one containment test, one Grown and one intern true-up per entry.
func BenchmarkAddGraphWarm(b *testing.B) {
	bs, spare := newWarmBench(b, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bs.cache.AddGraph(spare[i%len(spare)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoveGraphWarm is one RemoveGraph of a graph some entries
// answer with. When the live ids run out the dataset is restocked with
// the timer stopped.
func BenchmarkRemoveGraphWarm(b *testing.B) {
	bs, spare := newWarmBench(b, 10)
	live := make([]int, bs.cache.DatasetInfo().Size)
	for i := range live {
		live[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(live) == 1 { // the dataset keeps one live graph
			b.StopTimer()
			for _, g := range spare {
				gid, err := bs.cache.AddGraph(g)
				if err != nil {
					b.Fatal(err)
				}
				live = append(live, gid)
			}
			b.StartTimer()
		}
		gid := live[len(live)-1]
		live = live[:len(live)-1]
		if err := bs.cache.RemoveGraph(gid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowTurn is one turn of a ten-entry window on the full
// cache: fold, age, true up, choose and evict ten victims among 1 000,
// admit ten, republish the index. The misses that stage the window run
// with the timer stopped.
func BenchmarkWindowTurn(b *testing.B) {
	bs, _ := newWarmBench(b, 11) // never fills on its own at ten pending
	c, next := bs.cache, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for c.WindowLen() < 10 {
			if _, err := c.Execute(bs.misses[next%len(bs.misses)], ftv.Subgraph); err != nil {
				b.Fatal(err)
			}
			next++
		}
		b.StartTimer()
		turnNow(c)
	}
}
