package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"graphcache/internal/bitset"
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

// newManyHitStream returns a cache over 1 000 molecules holding 240
// admitted patterns of 12–18 vertices, and up to streamLen pairwise
// non-isomorphic patterns of 4–7 vertices, each with at least
// largeQueryCandidates candidates: every query may exploit the full hit
// budget, and the cached patterns that contain it, and the smaller ones
// among its predecessors that it contains, give it a dozen hits on
// average.
func newManyHitStream(tb testing.TB, streamLen int) (*Cache, []*graph.Graph) {
	tb.Helper()
	rng := rand.New(rand.NewSource(97))
	dataset := gen.Molecules(rng, 1000, gen.DefaultMoleculeConfig())
	method := ftv.NewGGSXMethod(dataset, 3)
	cfg := DefaultConfig()
	cfg.Capacity = 256
	cfg.Window = 16
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
	for i := 0; i < 240; i++ {
		g := gen.ExtractConnectedSubgraph(rng, dataset[rng.Intn(len(dataset))], 12+rng.Intn(7))
		if !distinct(g) {
			continue
		}
		if _, err := c.Execute(g, ftv.Subgraph); err != nil {
			tb.Fatal(err)
		}
	}
	view := method.View()
	var stream []*graph.Graph
	for i := 0; len(stream) < streamLen && i < 64*streamLen; i++ {
		g := gen.ExtractConnectedSubgraph(rng, dataset[rng.Intn(len(dataset))], 4+rng.Intn(4))
		if view.Candidates(g, ftv.Subgraph).Count() >= largeQueryCandidates && distinct(g) {
			stream = append(stream, g)
		}
	}
	if len(stream) == 0 {
		tb.Fatal("many-hit stream generation produced no patterns")
	}
	return c, stream
}

// BenchmarkExecuteManyHits is a miss that exploits many sub and super
// hits (hits/op, a dozen until the stream wraps into exact hits): the
// per-hit work — ranking, q↔h probes, crediting, the S/S′ algebra — at
// the large-query hit cap.
func BenchmarkExecuteManyHits(b *testing.B) {
	c, stream := newManyHitStream(b, 2048)
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Execute(stream[i%len(stream)], ftv.Subgraph)
		if err != nil {
			b.Fatal(err)
		}
		hits += res.SubHitCount() + res.SuperHitCount()
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
}

// The off-path layers: what a live dataset mutation and a window turn
// cost on a full cache at the benchmark harness's size (Capacity 1 000).
// A turn stops the world, so its ns/op is time no miss proceeds; a
// mutation stops nothing.
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

// warmCopies returns a function that builds a copy of c's resident set as
// it is now: c's snapshot restored into a fresh cache over a fresh Method
// on c's dataset. Every copy holds the same entries and no tombstone, and
// takes about a quarter of newWarmBench's time to build.
func warmCopies(b *testing.B, c *Cache) func() *Cache {
	view := c.Method().View()
	dataset := make([]*graph.Graph, view.Size())
	for i := range dataset {
		dataset[i] = view.Graph(i)
	}
	var snap bytes.Buffer
	if err := c.WriteState(&snap); err != nil {
		b.Fatal(err)
	}
	cfg := c.cfg
	cfg.Policy = nil
	return func() *Cache {
		cp := MustNew(ftv.NewGGSXMethod(dataset, 3), cfg)
		if err := cp.ReadState(bytes.NewReader(snap.Bytes())); err != nil {
			b.Fatal(err)
		}
		// Two collections empty the sync.Pools, so every copy starts from
		// the same pooled scratch, and no cycle pays to collect the last.
		runtime.GC()
		runtime.GC()
		return cp
	}
}

// BenchmarkAddGraphWarm is one AddGraph on a warm cache: a COW filter
// insert and a counter (the containment tests wait for each entry's next
// read). Each added graph is removed again with the timer stopped, as the
// benchmark harness's mutation burst does. A removal leaves a tombstone,
// which grows the id space, the answer sets and the filter's lists, so
// each full cycle over the spares starts, with the timer stopped, on a
// fresh warm copy: every cycle does the same work, at any b.N.
func BenchmarkAddGraphWarm(b *testing.B) {
	bs, spare := newWarmBench(b, 10)
	warm := warmCopies(b, bs.cache)
	var c *Cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(spare) == 0 {
			b.StopTimer()
			c = warm()
			b.StartTimer()
		}
		gid, err := c.AddGraph(spare[i%len(spare)])
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := c.RemoveGraph(gid); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkAddThenCatchUp is one AddGraph on the warm cache followed by
// Entries(), which brings every resident entry forward: the containment
// tests an addition leaves for the entries' next reads, which
// BenchmarkAddGraphWarm leaves out, plus Entries' copies of the 1 000
// entries. Each op adds a fresh copy of a spare, built with the timer
// stopped, so every op computes the added graph's vector as a new graph
// does. The removal and the catch-up on it are untimed, so each timed
// catch-up starts from entries current at the view before the add.
// Tombstones grow the fixture as in BenchmarkAddGraphWarm, so each full
// cycle over the spares starts on a fresh warm copy, as there.
// tests/op is the maintenance tests a catch-up runs, the entries the
// containment screen passed, averaged over the spares in one untimed
// pass: a count of the fixture, the same on every machine and at every
// b.N.
func BenchmarkAddThenCatchUp(b *testing.B) {
	bs, spare := newWarmBench(b, 10)
	warm := warmCopies(b, bs.cache)
	c := warm()
	addThenCatchUp := func(g *graph.Graph) {
		gid, err := c.AddGraph(g)
		if err != nil {
			b.Fatal(err)
		}
		c.Entries()
		b.StopTimer()
		if err := c.RemoveGraph(gid); err != nil {
			b.Fatal(err)
		}
		c.Entries()
		b.StartTimer()
	}
	tests := c.Stats().MaintenanceTests
	for _, g := range spare {
		addThenCatchUp(g)
	}
	perAdd := float64(c.Stats().MaintenanceTests-tests) / float64(len(spare))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i%len(spare) == 0 {
			c = warm()
		}
		g := spare[i%len(spare)]
		fresh := graph.MustNew(g.Labels(), g.Edges())
		b.StartTimer()
		addThenCatchUp(fresh)
	}
	b.ReportMetric(perAdd, "tests/op")
}

// BenchmarkRemoveGraphWarm is one RemoveGraph of a graph some entries
// answer with (they drop it at their next read or turn). When the live
// ids run out the dataset is restocked with the timer stopped.
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
// cache: mask and tally bytes, fold, age, choose and evict ten victims
// among 1 000, admit ten, publish the next list and its index. The
// misses that stage the window run with the timer stopped.
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

// BenchmarkReadState is one ReadState of the warm cache's snapshot, 1 000
// entries, into a fresh cache over the same Method, built with the timer
// stopped: every record parsed and checked, then every pattern re-run as
// a miss runs it, on GOMAXPROCS workers.
func BenchmarkReadState(b *testing.B) {
	bs, _ := newWarmBench(b, 10)
	var snap bytes.Buffer
	if err := bs.cache.WriteState(&snap); err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Capacity = 1000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := MustNew(bs.cache.Method(), cfg)
		b.StartTimer()
		if err := c.ReadState(bytes.NewReader(snap.Bytes())); err != nil {
			b.Fatal(err)
		}
		if c.Len() != 1000 {
			b.Fatalf("restored %d entries, want 1000", c.Len())
		}
	}
}

// scanBench is BenchmarkScanIndex's fixture: the harness's dataset
// (gen.Molecules seed 2018 ×5 000, GGSX maxLen 3), a cache holding 1 000
// resident entries cut from a containment-mix-shaped pool (gen.NewWorkload
// seed 2019, mixed types, 80 % of it in containment chains, 4–16 edges),
// and the next 2 000 patterns of the pool as probes, each with its row
// decoded once as a miss's walk holds it. The entries carry their
// vectors and rows only: a scan reads nothing else. Built once per test
// binary.
var scanBench = sync.OnceValue(func() (b struct {
	cache *Cache
	types []ftv.QueryType
	fvs   []graph.FeatureVector
	rows  []*ftv.Decoded
}) {
	dataset := gen.Molecules(rand.New(rand.NewSource(2018)), 5000, gen.DefaultMoleculeConfig())
	method := ftv.NewGGSXMethod(dataset, 3)
	wl, err := gen.NewWorkload(rand.New(rand.NewSource(2019)), dataset, gen.WorkloadConfig{
		Size: 1, Mixed: true, PoolSize: 3000,
		ChainFrac: 0.8, ChainLen: 3, MinEdges: 4, MaxEdges: 16,
	})
	if err != nil {
		panic(err)
	}
	cfg := DefaultConfig()
	cfg.Capacity = 1000
	b.cache = MustNew(method, cfg)
	view := method.View()
	var entries []*Entry
	for _, q := range wl.Pool[:1000] {
		entries = append(entries, newEntry(q.G, q.Type, bitset.New(view.Size()), view, 0, q.G.WLFingerprint(3),
			graph.ExtractFeatures(q.G), walkedRow(view, q.G), 0))
	}
	b.cache.replaceEntries(entries)
	for _, q := range wl.Pool[1000:] {
		d := walkedRow(view, q.G).Decode()
		b.types = append(b.types, q.Type)
		b.fvs = append(b.fvs, graph.ExtractFeatures(q.G))
		b.rows = append(b.rows, &d)
	}
	return b
})

// BenchmarkScanIndex is hit detection's scan alone (scanIndex): one probe
// of the pool against the 1 000 resident entries per op, reported as
// ns/probe beside derefs/probe, the entries whose screening key passes in
// some direction and whose fields the scan then reads. The second is a
// count of the fixture, the same on every machine.
//
//	go test -run '^$' -bench ScanIndex -benchmem ./internal/core/
func BenchmarkScanIndex(b *testing.B) {
	f := scanBench()
	c := f.cache
	if c.Len() != 1000 {
		b.Fatalf("%d resident entries, want 1000", c.Len())
	}
	derefs, r := 0, c.published.Load()
	for i, d := range f.rows {
		qk := ftv.NewScreenKey(f.fvs[i], d.Row)
		for j := range r.keys[f.types[i]] {
			if k := &r.keys[f.types[i]][j]; qk.In(k) || qk.Holds(k) {
				derefs++
			}
		}
	}
	// One untimed pass decodes the row of every probe that reaches a row
	// pass (a Decoded decodes at its first) and grows sub and super, so
	// the timed scans measure the scan alone.
	var sub, super []*Entry
	for j := range f.rows {
		sub, super = c.scanIndex(f.types[j], f.fvs[j], f.rows[j], sub[:0], super[:0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(f.rows)
		sub, super = c.scanIndex(f.types[j], f.fvs[j], f.rows[j], sub[:0], super[:0])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/probe")
	b.ReportMetric(float64(derefs)/float64(len(f.rows)), "derefs/probe")
}
