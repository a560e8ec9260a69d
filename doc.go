// Package graphcache is a caching system for subgraph/supergraph queries
// over graph datasets — a from-scratch Go implementation of GC/GraphCache
// (Wang, Liu, Ma, Ntarmos, Triantafillou; PVLDB 11(12), 2018 and EDBT
// 2017).
//
// Subgraph queries return the dataset graphs containing a pattern;
// supergraph queries return those contained in it. Both entail
// NP-complete subgraph-isomorphism (sub-iso) tests. GraphCache caches
// executed queries together with their answer sets and exploits three
// kinds of cache hits to cut sub-iso work for new queries:
//
//   - exact-match hits: an isomorphic cached query answers directly;
//   - sub-case hits (new query ⊑ cached query) and
//   - super-case hits (cached query ⊑ new query), which by containment
//     transitivity yield graphs that are answers for sure (skipped) or
//     non-answers for sure (pruned).
//
// The cache wraps any "Method M" — a filter-then-verify (FTV) method or a
// plain subgraph-isomorphism algorithm — and never changes its answers:
// results are provably exact (extensively property-tested against the
// uncached method).
//
// # Quick start
//
//	dataset := graphcache.GenerateMolecules(42, 1000)
//	method := graphcache.NewGGSXMethod(dataset, 4) // GraphGrepSX + VF2
//	cache, err := graphcache.NewCache(method, graphcache.DefaultConfig())
//	if err != nil { ... }
//	res, err := cache.Execute(pattern, graphcache.Subgraph)
//	// res.Answers: exact answer set; res.TestSpeedup(): saved work.
//
// # Concurrency
//
// A Cache is safe for any number of goroutines calling Execute at once.
// Admitted entries are published to readers as one immutable view — a
// fingerprint table plus a feature index — behind an atomic pointer, and
// the expensive query stages — Method M filtering, hit-detection iso
// tests, candidate verification — run without holding any lock. An exact
// hit on an admitted entry takes no lock and allocates nothing: it probes
// the published fingerprint table, credits the entry with two atomics and
// returns the Result the entry's answer state shares with every hit on
// it. Every other query takes the cache's one mutex briefly, to compare
// fingerprints against the pending admission window and, once executed,
// to append itself to it. The same mutex guards entry IDs (a plain
// counter), sub/super hit crediting — counter arithmetic, never iso
// tests — and the one admission window: when it fills, the turn ages
// utilities, ranks victims over the whole cache, evicts, admits and
// publishes a fresh view, so Config.Capacity holds exactly at every turn.
// Verification-cost statistics live in lock-free CAS cells, and a dataset
// mutation takes no cache lock and waits for no query.
//
// Sub/super hit detection consults the view's feature index: an
// ID-ordered array of immutable per-entry containment summaries
// (label/degree feature vectors plus each pattern's row of Method M's
// trie) that readers load once and scan lock-free against the query's
// own filter walk. Entries whose summaries cannot
// contain (or be contained in) the query's are skipped before any
// iso test — the summaries are necessary conditions
// for containment, so answers are provably unchanged. Cache.ExecuteAll
// drives a whole batch through a bounded worker pool, and
// Cache.ExecuteAllStream delivers outcomes over a channel as workers
// finish — the pipeline behind the server's NDJSON batch streaming. Both
// take a context that stops dispatching when cancelled, as the server's
// batch endpoints do when a client disconnects:
//
//	outs := cache.ExecuteAll(ctx, reqs, 8)
//	for so := range cache.ExecuteAllStream(ctx, reqs, 8) { ... }
//
// Sequential streams are deterministic — answers, hit classes and cache
// contents — for timing-independent policies (LRU, FIFO, POP, PIN). PINC
// and the default HD rank eviction victims by measured verification cost,
// so their cache contents can differ between physical runs. Concurrent
// submission keeps every answer set exact but makes
// admission order scheduling-dependent; ExecuteAll with one worker runs
// a batch in submission order. Config.Serialized, SharedWindow and IndexOff
// have no effect: they are declared only for the benchmark harness.
//
// # Live dataset mutations
//
// The paper specifies GC over a static dataset; this implementation also
// serves live stores. Cache.AddGraph appends a graph under a fresh,
// stable id and Cache.RemoveGraph tombstones one (ids are never reused),
// with every cached answer set maintained EXACTLY — a mixed
// add/remove/query stream returns answers byte-identical to the uncached
// method after every mutation. The rules:
//
//   - Each query runs against one immutable dataset snapshot (an epoch-
//     tagged, copy-on-write state behind an atomic pointer in the ftv
//     layer), loaded once at its start. A mutation publishes the next
//     snapshot and returns: it takes no cache lock and waits for no
//     query.
//   - Each cached answer set names the epoch it is exact for. A query
//     on a later snapshot brings the entry forward before trusting it:
//     it masks out the graphs removed since (no iso test) and verifies
//     the graphs added since — every addition appends one id, so those
//     are the ids past the set's length. A query on an earlier snapshot
//     than the entry's treats the entry as absent.
//   - Every window turn masks the pending removals of all cached
//     entries, so Cache.Bytes is exact at every turn.
//   - Because the maintenance keys on the snapshot, not on the caller,
//     answers stay exact when the Method is mutated behind the cache's
//     back: by another cache over the same Method, or directly.
//   - An addition copies what it inserts: AddGraph patches the filter
//     index through a copy-on-write insert (Filter.WithGraph). Under GGSX
//     it enumerates the new graph's paths, copies the trie nodes they
//     touch (of a bitmap node, one 64-byte block per digit the new count
//     sets plus its directory; a list is packed anew with the new
//     posting) and, of each per-graph array — the filter's rows and
//     blooms, the method's graphs — one 256-entry chunk plus the
//     directory. Everything else is shared with the previous snapshot,
//     which keeps answering for its own epoch.
//   - Additions keep no log and no per-graph state in the cache: every
//     addition appends one id, so an entry whose answer set is shorter
//     than the id space verifies the ids past it when next read —
//     bounded state under unbounded churn.
//
// Per-graph cost statistics and per-query bitsets grow with the dataset;
// the HTTP layer surfaces mutations as POST /api/dataset/graphs and
// DELETE /api/dataset/graphs/{id}, and /api/stats reports the maintenance
// ledger (datasetAdds, datasetRemoves, maintenanceTests). Bundled methods
// are all mutation-capable.
//
// # Persistence
//
// Cache.WriteState saves the admitted entries — query graphs, query types
// and utility counters, not answer sets — in the checksummed binary GCS3
// format, and Cache.ReadState restores a GCS3 snapshot, replacing the
// cache's contents. A restore is all-or-nothing: every record is read
// and verified before anything is installed. It then re-runs each query
// with Method M on the current dataset, so a snapshot restores over any
// dataset, including the one it was written on after mutations.
//
// # Extending
//
// Replacement policies are pluggable (the Figure 2(d) developer interface):
// implement Policy — Name, UpdateCacheStaInfo, ReplacedContent — and pass
// it in Config.Policy; the cache does the replacement and the ageing
// itself. Bundled policies: LRU, POP, PIN, PINC, HD
// (recommended default), FIFO and RAND. Method M is either bundled class —
// GGSX at any path length (filter-then-verify; NewGGSXMethod, or
// NewGGSXFilter inside NewMethod) or NoFilter (a plain SI algorithm;
// NewSIMethod) — and any VerifierFunc can replace VF2 inside NewMethod.
package graphcache
