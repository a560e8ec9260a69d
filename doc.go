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
// Admitted entries are partitioned across Config.Shards lock shards keyed
// by graph fingerprint (DefaultShards when zero), and the expensive query
// stages — Method M filtering, hit-detection iso tests, candidate
// verification — run without holding any lock. An exact hit on an
// admitted entry takes no global mutex: it probes the owning shard under
// that shard's read lock and credits the entry with two atomics. Every
// other query takes the window mutex briefly, to compare fingerprints
// against the pending admission window and, once executed, to append
// itself to it. Entry IDs come from an atomic counter and
// verification-cost statistics live in lock-free CAS cells. There is one
// admission window; when it fills, the turn is stop-the-world — under the
// policy mutex and every shard write lock it ages utilities, ranks
// victims over the whole cache, evicts, admits and republishes the
// feature index — so Config.Capacity holds exactly at every turn. The
// policy mutex also guards sub/super hit crediting — counter arithmetic,
// never iso tests.
//
// Sub/super hit detection consults a feature index instead of
// snapshotting the shards: per-shard, copy-on-write arrays of immutable
// per-entry containment summaries (label/degree feature vectors plus a
// path-feature bloom), each published through an atomic pointer; a
// window turn republishes them, and readers load the slices lock-free
// and scan their union. Entries whose summaries cannot
// contain (or be contained in) the query's are skipped before any
// dominance merge or iso test — the summaries are necessary conditions
// for containment, so answers are provably unchanged. Config.IndexOff
// restores the snapshot-scanning engine as a baseline. QueryAll drives a
// whole batch through a bounded worker pool, and QueryAllStream delivers
// outcomes over a channel as workers finish — the pipeline behind the
// server's NDJSON batch streaming:
//
//	outs := graphcache.QueryAll(cache, reqs, 8)
//	for so := range graphcache.QueryAllStream(cache, reqs, 8) { ... }
//
// Sequential streams are deterministic, and answers, hit classes and
// cache contents are identical at every shard count — the shards are an
// implementation detail — for timing-independent policies
// (LRU, FIFO, POP, PIN). PINC and the default HD rank eviction victims
// by measured verification cost, so their cache contents can differ
// between physical runs — a property of those policies, not of the
// sharding. Concurrent submission keeps every answer set exact but makes
// admission order scheduling-dependent. Config.Serialized restores the
// one-query-at-a-time engine for baselines and reproducibility.
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
//     layer); queries share a read lock, mutations take the write side,
//     so no query ever observes a half-maintained cache.
//   - Removals are stop-the-world and cheap: the gid's bit is cleared
//     from every admitted and window entry's answer set (a pointer swap
//     per entry, no iso tests) and the id is masked out of all future
//     candidate sets.
//   - Additions verify the new graph against each cached entry — eagerly
//     at mutation time by default, or lazily (Config.LazyReconcile) where
//     entries carry a dataset epoch and a hit on a stale entry verifies
//     only the delta graphs recorded in the addition log before its
//     answers are trusted.
//   - Additions are O(graph), not O(dataset): every bundled filter
//     implements the incremental-insert capability (ftv.InsertableFilter),
//     so AddGraph patches the filter index through a copy-on-write
//     per-touched-node insert — only the new graph's features are
//     enumerated, untouched index structure is shared with the previous
//     snapshot, and old snapshots keep answering for their own epoch.
//     Custom factory-built filters without the capability fall back to a
//     full rebuild (observable via the filterInserts/filterRebuilds
//     counters).
//   - The addition log is self-compacting: the kernel tracks the minimum
//     dataset epoch across all resident and pending entries and, at
//     window turns and every stop-the-world pass, drops the records every
//     entry has already passed. In eager mode the log drains at each
//     mutation; in lazy mode it holds exactly the records the coldest
//     entry still needs — bounded state under unbounded churn.
//
// Per-graph cost statistics and per-query bitsets grow with the dataset;
// the HTTP layer surfaces mutations as POST /api/dataset/graphs and
// DELETE /api/dataset/graphs/{id}, and /api/stats reports the maintenance
// ledger (filterInserts, filterRebuilds, additionLogLen, logCompactions).
// Bundled methods are all mutation-capable; custom static filters opt in
// via NewDynamicMethod.
//
// # Extending
//
// Replacement policies are pluggable (the Figure 2(d) developer interface):
// implement Policy — UpdateCacheStaInfo, ReplacedContent, OnWindowTurn —
// and pass it in Config.Policy. Bundled policies: LRU, POP, PIN, PINC, HD
// (recommended default), FIFO and RAND. Filters implementing Filter can
// replace GGSX inside Method M, and any VerifierFunc can replace VF2.
package graphcache
