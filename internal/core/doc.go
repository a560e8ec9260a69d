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
// windowMu — one short global mutex at the end of a path that already
// paid for a filter run and a verification — and the append that fills
// the window turns it stop-the-world; an exact hit on an admitted entry
// takes no global mutex (see the Cache type for the locking discipline). A Statistics
// Monitor/Manager tracks per-query and per-entry utilities, including the
// number of sub-iso tests each cached entry saved (PIN) and their measured
// cost (PINC).
//
// # Hot-path memory discipline
//
// Execute is the kernel's hot path; at throughput-benchmark rates its
// allocation count, not its instruction count, decides how far the
// sharded engine scales (allocations are serialized by the allocator and
// the GC long before any kernel lock contends). The discipline:
//
//   - An exact hit writes only its entry's line, its Monitor stripe and
//     tick, and allocates only its Result. The probe copies fingerprint
//     collisions into a stack buffer under the shard read lock (the same
//     *graph.Graph re-issued skips VF2 on pointer identity). Crediting is
//     the entry's CREDIT CELL — pendingExact.Add(1) and a monotonic max of
//     the tick into lastHit — never policyMu, a HitEvent or an O(|A|)
//     pricing walk. foldCreditsLocked drains the cells into the policy
//     (one event per entry, priced once, HitEvent.Count = pending hits)
//     at the FOLD POINTS, every place a policyMu holder reads or ages
//     utilities: the window turn before aging and ranking, Entries(),
//     WriteState and WriteStateV2. A sequential stream therefore ranks
//     LRU/FIFO/POP/PIN exactly as per-hit crediting did; PINC/HD price at
//     fold time. The answer is the entry's published set itself (Result
//     is a read-only view, see its comment).
//
//   - Per-query scratch comes from sync.Pools, never fresh: execScratch
//     (candidate-id, cost-sample and hit-credit slices, cache.go),
//     featScratch (path-feature counting, features.go) and the VF2 matcher
//     pool (internal/iso; verify binds one matcher per subgraph query and
//     runs every candidate through it). Pooled objects are reset — never zero-filled by
//     reallocation — and anything referencing caller data is nil'd before
//     Put so the pool never pins graphs alive.
//
//   - Bitsets that are mathematically all-zero stay lazy (internal/bitset:
//     a nil words slice means "all clear"), so the common empty
//     Excluded/Survivors sets cost O(1), not O(dataset). Set algebra
//     consumes its inputs where ownership allows: Execute
//     clones a candidate set only when a pruning hit actually forces a
//     divergent copy, and a Result's mathematically-equal fields alias one
//     set (see Result).
//
//   - Iteration over set intersections/differences is word-parallel and
//     callback-based (ForEachAnd/ForEachAndNot) — no materialized index
//     slices on the hot path; AppendIndices reuses caller buffers.
//
//   - Immutable graphs memoize their derived summaries (label-degree
//     lists, VF2 match plan, label vector, WL fingerprint) behind atomic
//     pointers (internal/graph), so repeated probes of the same graph are
//     allocation-free; racing computations produce identical values and
//     the loser's copy is garbage, which keeps the memo lock-free.
//
//   - What MAY allocate: the Result and, on a miss, its sets (they
//     outlive the call), admission bookkeeping on a miss (the entry, its
//     feature summary), and slice growth when a candidate set outgrows
//     every previous query's (the grown scratch is kept by the pool, so
//     growth amortizes to zero).
//
//   - Answer sets are adaptive and shared. internal/bitset picks the
//     smallest of three containers per set (sorted-uint32 sparse, run
//     spans, dense words) with automatic migration at container-local
//     thresholds; the read paths dispatch per container pair through
//     stack cursor structs, staying //gclint:noalloc. The container
//     rules: only the OWNER of an unpublished set may mutate or
//     Compact() it — entryFromSig and RemoveGraph's clone do, right
//     before publication; a published set is frozen in whatever
//     container it had (concurrent readers dispatch on its mode tag, so
//     migration on a shared set is a data race by construction).
//     Identical published sets are then interned cache-wide (intern.go):
//     entries acquire a refcounted canonical keyed by content
//     fingerprint, the residency account charges each canonical once,
//     and the pool's leaf mutex is the only lock the sharing costs.
//
//   - A set is hashed once, by the goroutine that built it, outside
//     every lock; the fingerprint travels in answerState. The hash
//     (bitset.Set.Fingerprint) is a wrapping sum of per-bit hashes, blind
//     to capacity and container, so everything that later changes the
//     set derives the new fingerprint from the old: a dataset add that
//     verifies adds bitset.ElemHash(gid), a removal subtracts it, Grown
//     and Compact leave it alone. Execute hashes the set it admits
//     before admit takes windowMu, restores hash what they decoded,
//     fault-in hashes on the faulting query (Monitor.hashSet is the
//     only caller of Fingerprint in the kernel and counts each one in
//     Snapshot.SetRehashes); the intern pool takes the
//     fingerprint as an argument and entries remember their pool node.
//     That is what keeps the two stop-the-world passes — window turns
//     and dataset mutations — proportional to what changed rather than
//     to what is cached: neither hashes, sorts or copies the resident
//     set (TestMutationHashesOnlyTheDelta; the turn selects its victims
//     with a bounded heap and merges the ID-sorted shards). Equal still
//     decides every pool match, so a wrong fingerprint could only cost
//     sharing, never an answer — and fingerprintDrift in the churn
//     suites checks every carried value against a from-scratch hash.
//     Persistence round-trips compact: the binary v3 snapshot stores
//     each set's native container encoding verbatim (bitset
//     AppendBinary/FromBinary), while the legacy v2 text format stores
//     index lists and re-picks the smallest container at entryFromSig —
//     either way a restored set is Compact()ed before publication.
//
// The regression fences: BenchmarkExecute* (bench_test.go) report
// allocs/op for the exact-hit, indexed-miss and sub/super-hit classes,
// and alloc_test.go pins hard per-path budgets via testing.AllocsPerRun
// — a returning O(n) clone fails CI, not a profile nobody reads.
// FuzzBitsetOps (internal/bitset) differentially fuzzes every container
// mix against a naive reference, and the benchmark harness's
// core.bytes_per_entry metric tracks resident bytes per cached query.
//
// # Snapshot persistence: the GCS3 binary format
//
// WriteState serializes the cache in state format v3 ("GCS3"), a binary,
// mmap-friendly layout; ReadState sniffs the magic and dispatches to the
// v3 reader or falls through to the legacy v2 text parser (WriteStateV2
// still produces v2). All integers are little-endian; every checksum is
// FNV-1a 64. The layout (offsets in bytes):
//
//	header, 64 B:  magic "GCS3" [0,4)   version=3 u32 [4,8)
//	               dsSize u64 [8,16)    dsEpoch i64 [16,24) (diagnostic)
//	               entryCount u64 [24,32)
//	               bodyOff u64 [32,40) = 64 + 136*entryCount
//	               fileSize u64 [40,48) indexSum u64 [48,56)
//	               headerSum u64 [56,64) over bytes [0,56)
//	index, 136 B/entry (fixed size, so record i is addressable without
//	parsing records 0..i-1):
//	               fp u64, queryType u32, baseCandidates u32,
//	               feature vector 56 B (ftv FV codec), hits i64,
//	               savedTests f64, savedCostNs f64,
//	               bodyOff u64, graphLen u64, ansLen u64,
//	               graphSum u64, ansSum u64
//	body:          per entry, contiguous and in index order: the graph
//	               in the text codec (graph.WriteGraph), then the answer
//	               set in its native bitset container encoding
//	               (bitset.AppendBinary — mode tag + capacity + count +
//	               sparse/dense/run payload, so a restore preserves the
//	               writer's container instead of re-deriving it).
//
// Validation is all-or-nothing and covers every byte: headerSum gates
// the header, indexSum gates the whole index section, per-entry
// graphSum/ansSum gate each body segment, and the records must tile the
// body exactly (record i's bodyOff equals the running offset; the final
// offset equals fileSize). Like v2, signatures and feature vectors are
// rebuilt from the parsed graphs and cross-checked against the index —
// never trusted from disk. A snapshot from a differently-sized dataset
// is refused (dsSize must equal the current view's id-space size).
//
// # Lazy restore
//
// RestoreStateLazy mmaps the file (internal/mmap; ReadAt fallback where
// unsupported) and restores eagerly EXCEPT the answer bodies: the
// header, index and graph segments are read and fully validated up
// front, so admission, the feature index, and exact/sub/super hit
// detection work immediately, while each entry's answer set faults in
// on its first Answers() call. The rules that keep this exact:
//
//   - An unfaulted entry's answer cell holds a pending answerState whose
//     lazyBody records (source, offset, length, checksum, capacity) plus
//     a drops list — the ids tombstoned since the snapshot was written
//     (dsSize equality proves no ADDS happened; ids are never reused).
//     Fault-in reads the segment, verifies ansSum, decodes, applies
//     drops, Compact()s, hashes, and publishes by CAS — fully lock-free,
//     with cross-entry dedup via the source's checksum-keyed map
//     (interning refcounts true up at the next rechargeLocked).
//   - Restored entries are stamped with the CURRENT dataset epoch
//     (sound for the addition log by the dsSize check, exactly as in
//     v2); a pending entry's epoch holds the log-compaction floor down
//     until it faults or is evicted.
//   - RemoveGraph on a pending entry appends to the drops list via a
//     COW lazyBody clone published under the full lock hierarchy; a
//     racing lock-free fault loses the CAS and retries against the new
//     body. Eviction of a pending entry just drops the cell — no I/O.
//   - Body corruption discovered at fault time PANICS (the restore
//     validated the index, so a failing ansSum means the file changed
//     underneath the mapping — there is no caller to return an error
//     to, and serving wrong answers would violate the SelfCheck
//     contract). Whole-file corruption is still rejected error-wise at
//     restore time, all-or-nothing.
//   - The returned io.Closer owns the mapping: Close() after the cache
//     is done faulting (for gcd: save first, then close). Monitor
//     counter StateBodyFaults observes fault-in traffic (/api/stats).
//
// # Machine-checked contracts: the gclint annotation grammar
//
// The locking discipline and the hot-path memory discipline above are
// not prose-only: `make lint` runs the repo's own analyzers
// (cmd/gclint, internal/lint) over every package, driven by `//gclint:`
// comment directives on the declarations themselves. The grammar, by
// example (the example lines are indented so they read as code, not as
// live directives):
//
//	//gclint:hierarchy serialMu dsMu windowMu policyMu shard  (on Cache: the lock order)
//	//gclint:lock policyMu     (on a field: this is lock "policyMu" in the hierarchy)
//	//gclint:leaf              (with lock: rank-exempt, but nothing may be acquired under it)
//	//gclint:acquires windowMu shard   (func acquires and releases these internally)
//	//gclint:requires policyMu shard   (func must be called with these held)
//	//gclint:holds shard       (func acquires these and LEAVES them held — lockAll)
//	//gclint:releases shard    (func releases caller-held locks — unlockAll)
//	//gclint:nolocks           (func must not acquire any lock, directly or via callees)
//	//gclint:noalloc           (func must not contain allocating constructs)
//	//gclint:cow               (type: copy-on-write; published values are immutable)
//	//gclint:cowview           (func returns a published COW value; callers must not write it)
//	//gclint:mutates           (method writes its receiver; illegal on published COW values)
//	//gclint:snapshot answers  (on a field/var: an atomically-published snapshot cell)
//	//gclint:loads answers [p] (func loads the cell; p names the instance-carrying
//	                            parameter, defaulting to the method receiver)
//	//gclint:pins dataset      (func is an operation scope: at most one load per
//	                            cell instance; loads in loops are torn snapshots)
//	//gclint:view dataset      (type: values are pinned views of the named cell;
//	                            functions receiving one must not re-load the cell)
//	//gclint:deterministic     (func output must be a deterministic function of its
//	                            inputs, transitively: no unordered map ranges
//	                            without a sorted-key idiom, no time/rand, no
//	                            goroutine spawns, no multi-case selects)
//	//gclint:ctxstrict         (package: context.Background/TODO are diagnostics
//	                            everywhere in the package)
//	//gclint:ignore lockorder -- reason   (waive one finding on this or the next line)
//
// Seven analyzers consume these: lockorder (hierarchy violations, unmet
// requires, acquisition inside nolocks), cowpublish (writes through
// cowview/atomic.Pointer-published values, mutates-calls on them),
// leaflock (any acquisition while a leaf lock is held), noalloc,
// snapshotonce (torn snapshots: a cell loaded twice, in a loop, or fresh
// where a caller already pinned a view), determinism (nondeterminism
// reachable from //gclint:deterministic roots through the call graph) and
// ctxflow (handlers that receive a context and then discard it, or that
// call the context-less sibling of a *Context API pair). Findings are
// build failures; every waiver needs a reason after `--`.
package core

// The kernel is context-strict: root contexts must not be minted inside
// this package — every operation that can block or fan out inherits its
// caller's context, so client disconnects and shutdown deadlines
// propagate into batch execution (see ExecuteAllStreamContext).
//
//gclint:ctxstrict
