// Package core implements the GraphCache (GC) kernel: a semantic cache of
// executed subgraph/supergraph queries that expedites future queries by
// harnessing exact-match, subgraph ("sub case") and supergraph ("super
// case") cache hits.
//
// # Semantics
//
// The cache sits on top of a Method M (package ftv): a filter producing a
// candidate set C_M plus a sub-iso verifier. For a new query q the kernel:
//
//  1. looks for an exact-match hit (an isomorphic cached query of the same
//     type) and, if found, serves the cached answer with zero dataset
//     sub-iso tests;
//  2. otherwise runs M's filter to obtain C_M, then detects
//     - sub-case hits: cached queries h with q ⊑ h, and
//     - super-case hits: cached queries h with h ⊑ q;
//  3. turns hits into savings. For a subgraph query
//     (A(q) = {G : q ⊑ G}):
//     - a sub-case hit gives A(h) ⊆ A(q): every graph in A(h) is an
//     answer for sure (set S, Figure 3(c)), skipping its test;
//     - a super-case hit gives A(q) ⊆ A(h): graphs outside A(h) are
//     non-answers for sure (set S', Figure 3(d)).
//     For a supergraph query (A(q) = {G : G ⊑ q}) the roles flip:
//     super-case hits deliver S, sub-case hits deliver S'.
//  4. verifies only C = (C_M ∩ ⋂ pruning-hit answers) \ S and returns
//     A = R ∪ S, where R are the verification survivors (Figure 3(f)–(h)).
//
// Correctness: members of S are answers by transitivity of subgraph
// isomorphism; members of S' are non-answers by contraposition; everything
// else is verified. Hence no false positives and no false negatives —
// property-tested in this package against the uncached Method M.
//
// # Management
//
// Executed queries enter the one admission window (Window Manager); at
// window boundaries they are admitted into the cache together and, if the
// cache would exceed its capacity, a replacement Policy selects victims
// ranked over the whole cache (LRU, POP, PIN, PINC, HD, and pluggable
// custom policies per Figure 2(d)). A miss appends to the window under
// mu — the cache's one short mutex, taken at the end of a path that
// already paid for a filter run and a verification — and the append that
// fills the window turns it stop-the-world; an exact hit on an admitted
// entry takes no lock at all. The lock hierarchy is mu alone (see the
// Cache type for the locking discipline); the only other lock a query
// or a dataset mutation meets is the method's leaf mutex (ftv.Method).
// A mutation waits for no query: each entry's answers name the dataset
// history they are exact for, and readers bring them forward (mutate.go).
// A Statistics
// Monitor/Manager tracks per-query and per-entry utilities, including the
// number of sub-iso tests each cached entry saved (PIN) and their measured
// cost (PINC).
//
// Config.Serialized, SharedWindow, IndexOff and LazyReconcile have no
// effect; they stay declared only because the benchmark harness assigns
// them.
//
// # Hot-path memory discipline
//
// Execute is the kernel's hot path; at throughput-benchmark rates its
// allocation count, not its instruction count, decides how far the
// engine scales (allocations are serialized by the allocator and
// the GC long before any kernel lock contends). The discipline:
//
//   - An exact hit writes only its Monitor stripe in steady state, reads
//     no clock, and allocates nothing: its Result (the hit
//     list inside it, its empty Excluded and Survivors the cache's shared
//     frozen empty set) belongs to the entry's published answer state
//     (answersAt.exact), built by the first hit on a state current for
//     its view and shared, read-only, by every later one. The probe loads
//     the published view once and walks the fingerprint's chain, taking
//     no lock (the same *graph.Graph re-issued skips VF2 on pointer
//     identity). Crediting is a word of the stripe's CREDIT TABLE
//     (monitor.go: 64 words, each an entry ID+1 and a hit count, the
//     word picked by ID mod 64) — claimed when empty, bumped by CAS when
//     it holds the entry — never mu, a HitEvent or an O(|A|) pricing
//     walk. A hit whose word holds another entry or is saturated adds to
//     the entry's CREDIT CELL (pendingExact) instead.
//     RECENCY IS STAMPED PER MISS: only a query that leaves the exact
//     path advances tick; a hit loads it and raises the entry's lastHit
//     only when a miss moved it since the entry's last stamp, so LRU
//     orders entries by the last miss before their latest hit, and a
//     hit stream with no miss writes neither tick nor the entry.
//     foldCreditsLocked first drains every stripe's table into the
//     cells, finding each entry by ID (a binary search over the
//     resident list, then the window; the hits of an ID in neither, an
//     entry evicted or replaced by a restore, are dropped, as its cell
//     is), then drains the cells into the policy (one event per entry,
//     priced once, HitEvent.Count = pending hits, HitEvent.Tick =
//     lastHit) at the FOLD POINTS, every place a mu holder reads or ages
//     utilities: the window turn before aging and ranking (resident and
//     pending entries), Entries() (resident entries; a pending entry's
//     drained hits wait in its cell for the turn) and WriteState.
//     PINC/HD price at fold time. The answer is the entry's published
//     set itself (Result is a read-only view, see its comment).
//
//   - A sub/super hit adds no allocation: its candidate and accepted
//     lists and the ranking live in execScratch (an accepted list is a
//     prefix of its candidate list), the ranking sorts with
//     slices.SortFunc, all of a query's hits are delivered to the policy
//     in one reused HitEvent (valid only during UpdateCacheStaInfo), and
//     the Result's hit list is sized once. No allocation scales with
//     the number of hits (TestManyHitAllocBudget holds a stream of
//     dozen-hit queries to the sub/super budget).
//
//   - Per-query scratch comes from sync.Pools, never fresh: execScratch
//     (hit-candidate, ranking, hit-credit, candidate-id and cost-sample
//     slices and the hit event, cache.go),
//     Method M's trie walk (internal/ftv: the query's per-node counts and
//     decoded row, held open from the filter call through hit detection,
//     so a miss walks q's label paths once) and the VF2 matcher
//     pool (internal/iso; verify binds one matcher per subgraph query and
//     runs every candidate through it). Pooled objects are reset — never zero-filled by
//     reallocation — and anything referencing caller data is nil'd before
//     Put so the pool never pins graphs alive.
//
//   - Bitsets that are mathematically all-zero stay lazy (internal/bitset:
//     a nil words slice means "all clear"), so an empty set costs O(1),
//     not O(dataset); the provably empty Excluded/Survivors sets are not
//     even built per query but are one frozen set per dataset size,
//     memoized on the Cache (emptySet). Set algebra
//     consumes its inputs where ownership allows: Execute
//     clones a candidate set only when a pruning hit actually forces a
//     divergent copy, and a Result's mathematically-equal fields alias one
//     set (see Result).
//
//   - Iteration over set intersections/differences is word-parallel and
//     callback-based (ForEachAnd/ForEachAndNot) — no materialized index
//     slices on the hot path; AppendIndices reuses caller buffers.
//
//   - Immutable graphs memoize their derived summaries (VF2 match plan,
//     WL fingerprint) behind atomic pointers (internal/graph), so
//     repeated probes of the same graph are allocation-free; racing
//     computations produce identical values and the loser's copy is
//     garbage, which keeps the memo lock-free.
//
//   - What MAY allocate: the Result and, on a miss, its sets (they
//     outlive the call), admission bookkeeping on a miss (the entry, its
//     packed trie row), and slice growth when a candidate set outgrows
//     every previous query's (the grown scratch is kept by the pool, so
//     growth amortizes to zero).
//
//   - Answer sets are adaptive, one per entry. internal/bitset picks the
//     smaller of two containers per set (sorted-uint32 sparse or dense
//     words) with automatic migration at container-local thresholds;
//     the read paths dispatch per container pair through stack cursor
//     structs and allocate nothing. The container
//     rules: only the OWNER of an unpublished set may mutate or
//     Compact() it — newEntry and withoutRemoved's clone do, right
//     before publication; a published set is frozen in whatever
//     container it had (concurrent readers dispatch on its mode tag, so
//     migration on a shared set is a data race by construction).
//     Sets are not shared across entries: each entry's Bytes() counts
//     its own, and Cache.Bytes is Σ Entry.Bytes() at every turn.
//
//   - The one stop-the-world pass, the window turn, sorts nothing: it
//     masks pending removals by cloning only the sets that hold a removed
//     graph (an entry with no removal since its set was published costs
//     one comparison), tallying one O(1) Bytes() per entry as it goes,
//     selects its victims with a bounded heap over the ID-ordered
//     resident list and copies the survivors' pointers into the next
//     list. A dataset mutation stops nothing at all.
//     A snapshot stores no answer sets: a restore re-runs each pattern
//     and newEntry Compact()s the fresh set before publication.
//
// The regression fences: BenchmarkExecute* (bench_test.go) report
// allocs/op for the exact-hit, indexed-miss and sub/super-hit classes,
// and alloc_test.go pins hard per-path budgets via testing.AllocsPerRun
// — a returning O(n) clone fails CI, not a profile nobody reads. The
// helpers those paths call that must allocate nothing at all (cost
// cells, containment screens, bitset reads, VF2, GGSX's count merges) are
// held to a budget of zero by table tests in their own packages.
// FuzzBitsetOps (internal/bitset) differentially fuzzes every container
// mix against a naive reference, and the benchmark harness's
// core.bytes_per_entry metric tracks resident bytes per cached query.
//
// # Snapshot persistence: patterns and utilities, in GCS3
//
// An entry's answer set is a materialised view — a function of its
// pattern, its query type and the dataset — so a snapshot records each
// admitted entry's pattern, query type, admission-time base candidates
// |C_M| and policy utilities (hits, saved tests, saved cost), and no
// answers. WriteState serializes them in the one snapshot format,
// "GCS3", and ReadState reads it; any other input, a text state of the
// retired format included, is refused by its magic. A snapshot is a
// fixed-size header, a fixed-size index record per entry (so record i is
// addressable without parsing the ones before it) and a body holding each
// entry's graph in the text codec. All integers are little-endian; every
// checksum is FNV-1a 64. The layout, byte by byte, is stated once, in the
// comment at the top of persist.go.
//
// Validation is all-or-nothing and covers every byte: an older version
// is refused first (versions 3 to 5 carried answer sets), the header
// checksum gates the header, the index checksum the whole index section,
// each graph's checksum its body segment, and the records must tile the
// body exactly (each record's body offset equals the running offset; the
// final offset equals the file size).
// The fingerprint rebuilt from each parsed graph must equal its record's.
//
// There is one restore mode. Every record is parsed and checked first;
// then the restore pins one dataset view and, on runtime.GOMAXPROCS(0)
// workers, re-runs each pattern as a miss does: one trie walk for C_M and
// the row, then verify with the pattern bound once, moving no Monitor
// counter or cost cell. It installs the entries under mu in one step
// (replaceEntries). The restored answers are exact for that view whatever
// dataset the snapshot was written on, and a mutation landing during the
// restore is brought in by the entries' next readers. BaseCandidates
// stays the recorded |C_M| — history, like Hits — capped at the view's id
// space. WriteState copies the records under mu after folding the
// pending credits, and lays them out and writes them once mu is released.
//
// # Concurrency contracts and the tests that hold them
//
// The locking, publication and context discipline above is held by
// runtime tests, not by a static analyzer. `make race` and `make
// race-stress` run the concurrency ones under the race detector, the
// latter ten times over. Each function's doc comment states its part:
// "Caller holds mu." (or a …Locked name) or "Takes no lock.". The
// contracts, each with the tests that fail when a change breaks it:
//
//   - mu is the cache's one lock; the method's mutex is a leaf that
//     nothing is taken under. Policy and window state (creditHit,
//     turnWindow and the …Locked helpers) is touched only under mu:
//     TestConcurrentMixedTraffic, TestConcurrentWindowTurns,
//     TestConcurrentChurn, TestConcurrentClients,
//     TestConcurrentExecuteAll (data races; a turn outside mu also
//     panics TestConcurrentClients).
//   - An exact hit on an admitted entry, Len, Bytes and Stats take no
//     lock: TestExactProbeTakesNoLock. Every exact hit is credited once
//     (TestExactHitCreditsAreConserved, eight goroutines under the race
//     detector; the CreditTable tests), and in steady state writes no
//     cell outside its stripe (TestCreditTableHitsWriteNoSharedCell).
//   - No filter run and no containment test happens under mu: a query's
//     own, TestQueryPathHoldsNoMu; those of Entries and of a restore's
//     re-runs (the snapshot writer runs none), TestReconciliationHoldsNoMu;
//     a snapshot's writes, TestSnapshotWriterHoldsNoLock. A restore's
//     workers are all done when ReadState returns, and its entries answer
//     Method.Run after mutations and queries raced it:
//     TestRestoreDuringChurn.
//   - A mutation takes no cache lock and waits for no query:
//     TestMutationTakesNoCacheLock, TestMutationWaitsForNoQuery.
//   - An operation pins one dataset view and sizes, filters, verifies
//     and reads answers against it alone, and a function that reads a
//     published value (an entry's answer cell, the resident view) loads
//     it once: TestStaleViewReaderSkipsAheadEntry, the SelfCheck suites
//     (TestChurnEquivalence), and the swap tests of tornread_test.go,
//     which re-run a reader while another goroutine replaces what it
//     reads (TestConcurrentSwapExactHitReadsOneState,
//     TestConcurrentSwapLiveCountReadsOneState,
//     TestConcurrentRepublishProbeWalksOneView,
//     TestEntriesDuringAddsHoldsNoMu,
//     TestConcurrentMutationDatasetInfoReadsOneView).
//   - A published value is never written: the resident list
//     (TestTurnLeavesPublishedListUnchanged), answer sets
//     (TestExactMemoFollowsMutations, TestTurnMaskLeavesPublishedSetIntact;
//     TestConcurrentChurn and TestConcurrentWindowTurns under the race
//     detector for an in-place Compact), the method's live set
//     (TestStaleViewReaderSkipsAheadEntry), its chunked arrays
//     (TestChunkedWith, TestConcurrentAddKeepsViews,
//     TestInsertSharesUntouchedChunks), GGSX's posting and bitmap blocks
//     (TestGGSXCandidatesMatchReferenceAcrossBlocks,
//     TestInsertCopiesOneBlockPerSetDigit).
//   - Contexts flow: this package and internal/server mint no root
//     context, and the batch handlers pass the request's context to the
//     kernel, so a client disconnect or a shutdown deadline stops batch
//     execution (ExecuteAllStream): TestNoRootContext (a scan of both
//     packages' source), TestStreamBatchClientDisconnect,
//     TestBufferedBatchClientDisconnect, TestStreamContextCancelledUpfront,
//     TestStreamContextDropsOutcomeNobodyReads.
//
// Zero allocations and deterministic output are pinned the same way: the
// alloc_test.go budgets, and the persistence, victim-selection and
// ranking tests (TestStateRewritesIdentically,
// TestVictimSelectionMatchesFullSort, TestRankCandidatesDeterministic,
// TestChurnDeterministic).
package core
