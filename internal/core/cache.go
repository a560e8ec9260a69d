package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphcache/internal/bitset"
	"graphcache/internal/ftv"
	"graphcache/internal/graph"
)

// Cache is the GraphCache kernel deployed over a Method M, safe for
// concurrent use by many goroutines at once.
//
// # Locking discipline
//
// Admitted entries are partitioned across Config.Shards lock-striped
// shards by graph fingerprint; each shard carries its own RWMutex. The
// expensive stages of a query — Method M filtering, hit-detection iso
// tests and candidate verification — run without holding any lock at all:
// they operate on the immutable dataset, on immutable entry fields (Graph,
// Answers, signatures) and on the lock-free published feature index.
//
// An exact hit on an admitted entry takes no global mutex: the probe reads
// the owning shard under its read lock and the crediting is the entry's
// credit cell, folded in later by foldCreditsLocked. Every other query
// takes windowMu twice, briefly: once to compare fingerprints against the
// pending window after the shard probe found nothing, and once — at the
// end of a path that already cost a filter run and a verification — to
// append the executed query to the window. Entry IDs come from an atomic
// counter claimed under windowMu, and the verification-cost EMAs are
// lock-free CAS cells. policyMu guards the replacement policy and the
// per-entry utility fields it mutates, so sub/super hit crediting (counter
// arithmetic) and window turns take it.
//
// There is one admission window (the paper's Window Manager). When it
// fills, the staging goroutine turns it stop-the-world: under windowMu,
// policyMu and every shard write lock it folds credits, ages utilities,
// selects the lowest-ranked victims over the whole cache (without sorting
// it), evicts, admits the window and republishes every shard's
// copy-on-write slice of the feature index (see index.go for the
// publication rules). Capacity is strict at every turn.
// The lock hierarchy is dsMu → windowMu → policyMu → shard locks; reverse
// nestings never occur. dsMu is the dataset RWMutex: queries hold its read
// side for their whole run (pinning one dataset snapshot; queries never
// serialize against each other on it), live dataset mutations
// (AddGraph/RemoveGraph, see mutate.go) hold the write side while they
// patch cached answer sets. Operational counters (Monitor) are atomics
// and bypass locks entirely. Behaviour on many cores is unmeasured: the
// committed runs are from two-CPU machines.
//
// # Determinism
//
// Shards are an implementation detail of the kernel, never visible in its
// semantics: the window is global and ID-ordered, and a turn ranks the
// ID-ordered gather of every shard, so for a sequential query stream the
// answers, hit classes, entry IDs, utilities and cache contents are
// deterministic and identical at every shard count
// (equivalence_test.go). That is exact for timing-independent policies
// (LRU, FIFO, POP, PIN); PINC and the default HD rank victims by measured
// verification nanoseconds, so their eviction choices can vary between
// physical runs — any two runs, independent of sharding. Under concurrent
// submission admission order (and hence eviction choices) depends on
// goroutine scheduling, but every individual answer set remains exact.
//
// The lock hierarchy is machine-checked: the directive below and the
// //gclint: annotations on fields and functions drive the gclint
// analyzers (internal/lint), which fail the build on reverse nestings,
// unmet lock preconditions, and writes to published COW state.
//
//gclint:hierarchy serialMu dsMu windowMu policyMu shard
type Cache struct {
	method *ftv.Method
	cfg    Config
	policy Policy

	shards []*shard

	// serialMu is taken for the whole of Execute when cfg.Serialized is
	// set — the pre-sharding engine's behavior, kept as the measurable
	// baseline for the parallel-throughput benchmarks and as the reference
	// configuration for equivalence tests.
	//gclint:lock serialMu
	serialMu sync.Mutex

	// dsMu orders queries against live dataset mutations: Execute (and the
	// state save/restore paths) hold the read side for their whole
	// duration, so every query runs against ONE dataset snapshot and its
	// answer is exact for that snapshot; AddGraph/RemoveGraph take the
	// write side, which both drains all in-flight queries before the
	// mutation patches cached state and guarantees no query observes a
	// half-maintained cache. Queries never serialize against each other on
	// it — dsLock stripes the reader count across padded per-slot
	// counters, so the read fast path touches no shared cache line (see
	// dslock.go). The outermost rung of the lock hierarchy:
	// dsMu → windowMu → policyMu → shard locks.
	//gclint:lock dsMu
	dsMu dsLock

	// windowMu guards the admission window: executed queries are appended
	// under it and the goroutine whose append fills the window turns it
	// before unlocking. Held for an append or a fingerprint comparison per
	// pending entry, except by that turn.
	//gclint:lock windowMu
	windowMu sync.Mutex
	window   []*Entry

	// policyMu guards the replacement policy and the mutable per-entry
	// utility fields it reads and writes (Hits, LastUsed, SavedTests,
	// SavedCostNs): sub/super hit crediting, folding exact-hit credit
	// cells, utility aging, and eviction accounting.
	// Never held across iso tests or dataset scans. Hierarchy: windowMu →
	// policyMu → shard locks.
	//gclint:lock policyMu
	policyMu sync.Mutex

	// nextID assigns entry IDs. Claimed under windowMu, so the window's
	// staging order is ascending in ID.
	nextID atomic.Int64

	// tick is the global query sequence number (atomic: assigned at query
	// start, before any lock).
	tick atomic.Int64

	// costVal and globalVal are lock-free EMA cells tracking per-dataset-
	// graph (and overall) verification cost in float64 ns, stored as bits
	// (0 bits = no estimate yet). Updates are CAS loops; reads are single
	// atomic loads, so neither hit crediting nor cost recording takes any
	// lock.
	costVal   []atomic.Uint64
	globalVal atomic.Uint64

	// res tracks cache-wide resident entries/bytes atomically (see
	// residency). res covers static entry bytes only; the shared
	// answer-set bytes live in pool's account.
	res residency

	// victim is evictLocked's reusable mark-per-position scratch, all
	// false between evictions. Guarded by policyMu.
	victim []bool

	// pool interns answer sets across entries (see intern.go): identical
	// published sets collapse onto one canonical allocation, charged once.
	// Its mutex is a leaf — acquired under shard locks, never the reverse —
	// so it sits outside the checked hierarchy.
	pool *internPool

	mon Monitor
}

// defaultCostNs seeds cost estimates before any verification ran.
const defaultCostNs = 50_000

// costAlpha and globalCostAlpha are the EMA smoothing factors for the
// per-graph and overall verification-cost estimates.
const (
	costAlpha       = 0.3
	globalCostAlpha = 0.05
)

// New builds a Cache over the method. The config is validated; a nil
// Policy defaults to a fresh HD instance.
func New(method *ftv.Method, cfg Config) (*Cache, error) {
	if err := cfg.validate(method); err != nil {
		return nil, err
	}
	if cfg.Policy == nil {
		cfg.Policy = NewHD()
	}
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	c := &Cache{
		method:  method,
		cfg:     cfg,
		policy:  cfg.Policy,
		costVal: make([]atomic.Uint64, method.DatasetSize()),
	}
	c.pool = newInternPool()
	c.shards = newShards(cfg.Shards, &c.res, c.pool)
	return c, nil
}

// MustNew is New that panics on error, for tests and examples with
// constant configs.
func MustNew(method *ftv.Method, cfg Config) *Cache {
	c, err := New(method, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Method returns the underlying Method M.
func (c *Cache) Method() *ftv.Method { return c.method }

// PolicyName returns the active replacement policy's name.
func (c *Cache) PolicyName() string { return c.policy.Name() }

// Shards returns the number of lock shards the cache was built with.
func (c *Cache) Shards() int { return len(c.shards) }

// newID claims the next entry ID. Callers hold windowMu, which keeps the
// window's staging order ascending in ID.
func (c *Cache) newID() int {
	return int(c.nextID.Add(1) - 1)
}

// Len returns the number of admitted entries (excluding the window). It
// reads the atomic residency account — every shard insert and removal
// maintains it — instead of walking the shards under their locks.
func (c *Cache) Len() int {
	return int(c.res.entries.Load())
}

// WindowLen returns the number of entries pending admission.
//
//gclint:acquires windowMu
func (c *Cache) WindowLen() int {
	c.windowMu.Lock()
	defer c.windowMu.Unlock()
	return len(c.window)
}

// Bytes returns the estimated resident size of admitted entries: the
// static footprints from the atomic residency account (the same totals
// the per-shard memBytes fields sum to — asserted by
// TestResidencyAccountAgreement) plus the interned answer sets, each
// charged once however many entries share it.
func (c *Cache) Bytes() int {
	return int(c.res.bytes.Load() + c.pool.bytes.Load())
}

// Stats returns a snapshot of the operational counters, supplemented
// with the method-side filter-maintenance counters and the current
// addition-log length (those live on the method, which outlives any one
// cache).
func (c *Cache) Stats() Snapshot {
	s := c.mon.Snapshot()
	s.FilterInserts = c.method.FilterInserts()
	s.FilterRebuilds = c.method.FilterRebuilds()
	s.AdditionLogLen = c.method.AdditionLogLen()
	s.AnswerBytes = c.pool.bytes.Load()
	s.InternHits = c.pool.hits.Load()
	s.InternMisses = c.pool.misses.Load()
	return s
}

// ShardStat is one shard's occupancy snapshot: resident entries and
// resident bytes. Bytes covers the shard's static entry footprints only —
// answer bytes are pooled cache-wide (Snapshot.AnswerBytes).
type ShardStat struct {
	Entries int
	Bytes   int
}

// ShardStats reports each shard's occupancy in shard order. Each shard is
// read under its own read lock; the set is approximate under concurrent
// load, exactly like the Monitor counters.
//
//gclint:acquires shard
func (c *Cache) ShardStats() []ShardStat {
	out := make([]ShardStat, len(c.shards))
	for i, sh := range c.shards {
		sh.mu.RLock()
		out[i] = ShardStat{Entries: len(sh.entries), Bytes: sh.memBytes}
		sh.mu.RUnlock()
	}
	return out
}

// Entries returns the admitted entries in admission order as defensive
// copies: the Entry structs are snapshots taken under policyMu (so the
// mutable utility fields are read race-free; admissions and evictions
// also serialize on policyMu) after folding pending exact-hit credits;
// Graph, Answers and the signature fields still alias the cache's
// immutable originals. Intended for demonstrators and tests inspecting
// cache contents.
//
//gclint:acquires dsMu policyMu shard
func (c *Cache) Entries() []*Entry {
	dsTok := c.dsMu.RLock()
	defer c.dsMu.RUnlock(dsTok)
	c.policyMu.Lock()
	defer c.policyMu.Unlock()
	all := c.entriesSnapshot()
	c.foldCreditsLocked(all)
	out := make([]*Entry, len(all))
	for i, e := range all {
		cp := *e
		out[i] = &cp
	}
	return out
}

// Execute processes one query through the cache. The returned Result is a
// read-only view: on an exact hit its answer set IS the entry's published
// (frozen) set, so callers Clone before mutating (see the Result doc
// comment). Execute is safe to call from any number of goroutines; see
// the Cache doc comment for what runs in parallel and what serializes.
//
//gclint:acquires serialMu dsMu windowMu policyMu shard
//gclint:pins dataset
func (c *Cache) Execute(q *graph.Graph, qt ftv.QueryType) (*Result, error) {
	if q == nil {
		return nil, fmt.Errorf("core: nil query graph")
	}
	if c.cfg.Serialized {
		c.serialMu.Lock()
		defer c.serialMu.Unlock()
	}
	// The read side of the dataset mutex pins one dataset snapshot for the
	// whole query: filtering, hit reconciliation, verification, self-check
	// and admission all see the same epoch. Queries share the read side
	// freely; only AddGraph/RemoveGraph take the write side.
	dsTok := c.dsMu.RLock()
	defer c.dsMu.RUnlock(dsTok)
	view := c.method.View()

	tick := c.tick.Add(1)
	mon := &c.mon.hot[max(dsTok, 0)] // -1: the lock's fallback path took no slot
	mon.queries.Add(1)
	// Stage 0: fingerprint only. The exact-match probe consults nothing
	// else, so the expensive half of the signature (path features, label
	// vector, feature vector) is deferred until a miss is certain. The
	// fingerprint itself is memoized on the immutable query graph.
	fp := q.WLFingerprint(3)

	// Stage 1: exact-match fast path — zero dataset tests.
	t0 := time.Now()
	if res := c.exactHit(q, qt, fp, view, tick, mon, t0); res != nil {
		c.selfCheck(q, qt, res)
		return res, nil
	}
	hitTime := time.Since(t0)
	sig := c.signatureOf(q)
	n := view.Size()

	// Stage 2: Method M filtering (lock-free: the view's filter index is
	// immutable). The returned set is freshly built for this query, so the
	// algebra below may consume it in place once its count is captured.
	tf := time.Now()
	cm := view.Candidates(q, qt)
	filterTime := time.Since(tf)
	cmCount := cm.Count()

	// Stage 3: sub/super hit detection over a point-in-time snapshot of
	// the cache. The iso tests run without any lock; entries evicted
	// mid-detection stay sound (their answer sets remain exact over the
	// immutable dataset).
	th := time.Now()
	hs := c.detectHits(q, qt, sig)
	hitTime += time.Since(th)
	c.mon.hitDetectIso.Add(int64(hs.isoTests))

	// Stage 4: candidate algebra. Which direction delivers guaranteed
	// answers (S) versus pruning (S′) depends on the query type; see the
	// package comment for the containment proofs.
	answerHits, pruneHits := hs.sub, hs.super
	answerKind, pruneKind := SubHit, SuperHit
	if qt == ftv.Supergraph {
		answerHits, pruneHits = hs.super, hs.sub
		answerKind, pruneKind = SuperHit, SubHit
	}

	// Saved-test sets and their cost estimates are computed lock-free (the
	// cost cells are atomic); only the policy updates run under policyMu,
	// keeping the critical section to counter arithmetic per hit. The
	// saved-set intersections/differences iterate word-parallel over the
	// operands directly (ForEachAnd/ForEachAndNot) — no intermediate set
	// is materialized per hit.
	sc := getExecScratch()
	defer putExecScratch(sc)
	// A hit's answers must first be brought to the query's dataset epoch:
	// stale sets miss graphs added since the entry was last reconciled,
	// which would silently shrink S (lost savings — sound) but also
	// wrongly exclude candidates via S′ (lost answers — unsound).
	credits := sc.credits[:0]
	sure := bitset.New(n)
	for _, h := range answerHits {
		ha := c.reconciledAnswers(h, view)
		saved, cost := 0, 0.0
		ha.ForEachAnd(cm, func(gid int) bool {
			saved++
			cost += c.estimatedCost(gid)
			return true
		})
		credits = append(credits, hitCredit{h, answerKind, saved, cost})
		sure.Or(ha)
	}
	// candPruned aliases cm until the first pruning hit forces a private
	// copy; cm itself is only needed for counts after this point, which
	// cmCount already captured.
	candPruned := cm
	for _, h := range pruneHits {
		ha := c.reconciledAnswers(h, view)
		saved, cost := 0, 0.0
		cm.ForEachAndNot(ha, func(gid int) bool {
			saved++
			cost += c.estimatedCost(gid)
			return true
		})
		credits = append(credits, hitCredit{h, pruneKind, saved, cost})
		if candPruned == cm {
			candPruned = cm.Clone()
		}
		candPruned.And(ha)
	}
	sc.credits = credits
	var hits []HitRef
	if len(credits) > 0 {
		c.policyMu.Lock()
		for _, cr := range credits {
			c.creditHit(cr.h, cr.kind, cr.saved, cr.cost, tick, &hits)
		}
		c.policyMu.Unlock()
	}
	// S′ = C_M \ (C_M ∩ ⋂ A(h′)) — provably empty (and kept lazy) when no
	// pruning hit narrowed the candidates.
	var excluded *bitset.Set
	if candPruned != cm {
		excluded = cm.Clone()
		excluded.AndNot(candPruned)
	} else {
		excluded = bitset.New(n)
	}

	// C = (C_M ∩ ⋂ A(h')) \ S, consuming candPruned in place (when it
	// still aliases cm this retires cm too — its count lives on in
	// cmCount).
	cand := candPruned
	cand.AndNot(sure)

	if len(hs.sub) > 0 {
		c.mon.subHitQueries.Add(1)
		c.mon.subHits.Add(int64(len(hs.sub)))
	}
	if len(hs.super) > 0 {
		c.mon.superHitQueries.Add(1)
		c.mon.superHits.Add(int64(len(hs.super)))
	}

	// Stage 5: verification of the reduced candidate set (lock-free; cost
	// samples fold into the EMA cells with CAS, no lock either).
	tv := time.Now()
	tests := cand.Count()
	survivors, costs := c.verify(view, q, qt, cand, sc)
	verifyTime := time.Since(tv)
	c.recordCosts(costs)

	// A = R ∪ S. When no answer-delivering hit contributed (sure is
	// empty), A = R exactly and Answers shares Survivors' set — see the
	// aliasing note on Result.
	answers := survivors
	if !sure.Empty() {
		answers = survivors.Clone()
		answers.Or(sure)
	}

	c.mon.testsExecuted.Add(int64(tests))
	mon.testsSaved.Add(int64(cmCount - tests))
	c.mon.filterNs.Add(filterTime.Nanoseconds())
	mon.hitNs.Add(hitTime.Nanoseconds())
	c.mon.verifyNs.Add(verifyTime.Nanoseconds())

	res := &Result{
		Answers:        answers,
		BaseCandidates: cmCount,
		Candidates:     tests,
		Tests:          tests,
		Sure:           sure,
		Excluded:       excluded,
		Survivors:      survivors,
		Hits:           hits,
		FilterTime:     filterTime,
		HitTime:        hitTime,
		VerifyTime:     verifyTime,
	}
	c.selfCheck(q, qt, res)

	// Stage 6: admission via the window manager. The entry carries the
	// view's epoch: its answers are exact for that dataset state, and any
	// later mutation either patches it (eager) or is reconciled from the
	// addition log before the entry's answers are next trusted (lazy). It
	// is built — answers cloned, compacted and hashed — before admit takes
	// any lock.
	c.admit(c.entryFromSig(q, qt, answers.Clone(), cmCount, sig, tick, view.Epoch()))
	return res, nil
}

// exactHit is the exact-match fast path: probe the owning shard, then the
// pending window, for an entry isomorphic to q and serve it; nil on a
// miss. The probe's two short locks are the only ones it may take — never
// policyMu.
//
//gclint:requires dsMu
//gclint:acquires windowMu shard
func (c *Cache) exactHit(q *graph.Graph, qt ftv.QueryType, fp graph.Fingerprint, view ftv.DatasetView, tick int64, mon *hotCounters, t0 time.Time) *Result {
	e := c.findExact(q, qt, fp)
	if e == nil {
		return nil
	}
	return c.serveExact(e, view, tick, mon, t0)
}

// serveExact answers a query from the isomorphic entry e: O(1), one
// allocation, and the only writes are e's credit cell and the caller's
// Monitor stripe (doc.go, hot-path discipline). Answers and Sure (A = S)
// are e's published, frozen set itself.
//
//gclint:requires dsMu
//gclint:nolocks
func (c *Cache) serveExact(e *Entry, view ftv.DatasetView, tick int64, mon *hotCounters, t0 time.Time) *Result {
	ans := c.reconciledAnswers(e, view)
	// Tick first (a monotonic max: an older, slower query never rewinds
	// recency), count second, so a racing fold that sees this hit's count
	// also sees a lastHit at least as new.
	for {
		old := e.ans.lastHit.Load()
		if tick <= old || e.ans.lastHit.CompareAndSwap(old, tick) {
			break
		}
	}
	e.ans.pendingExact.Add(1)
	hitTime := time.Since(t0)
	saved := e.BaseCandidates
	mon.exactHits.Add(1)
	mon.testsSaved.Add(int64(saved))
	mon.hitNs.Add(hitTime.Nanoseconds())
	res := &Result{
		Answers:        ans,
		BaseCandidates: saved,
		Sure:           ans,
		ExactHit:       true,
		HitTime:        hitTime,
		empty:          bitset.Empty(view.Size()),
		hit:            [1]HitRef{{EntryID: e.ID, Kind: ExactHit, SavedTests: saved}},
	}
	res.Excluded, res.Survivors, res.Hits = &res.empty, &res.empty, res.hit[:]
	return res
}

// foldCreditsLocked drains the entries' exact-hit credit cells into the
// policy: k > 0 pending hits become ONE event of Count k at the latest
// hit's tick, priced once (fold points: doc.go). dsMu pins costVal.
//
//gclint:requires dsMu policyMu
func (c *Cache) foldCreditsLocked(entries []*Entry) {
	for _, e := range entries {
		if e.ans.pendingExact.Load() == 0 {
			continue // a load, not a swap: clean entries' lines stay shared
		}
		k := int(e.ans.pendingExact.Swap(0))
		ev := &HitEvent{Entry: e, Kind: ExactHit, SavedTests: e.BaseCandidates, Tick: e.ans.lastHit.Load(), Count: k}
		// Price the savings like the sub/super path does: per-graph cost
		// estimates over the entry's answer set, the overall mean only for
		// the remainder of C_M (the candidates that verified negative).
		// Pricing every saved test at the mean would under-credit entries
		// whose savings concentrate on expensive graphs, skewing PINC/HD
		// victim ranking against exactly the entries worth keeping.
		inAnswers := 0
		e.Answers().ForEach(func(gid int) bool {
			inAnswers++
			ev.SavedCostNs += c.estimatedCost(gid)
			return true
		})
		if rem := ev.SavedTests - inAnswers; rem > 0 {
			ev.SavedCostNs += float64(rem) * c.estimatedMeanCost()
		}
		c.policy.UpdateCacheStaInfo(ev)
	}
}

// hitCredit is one hit's pending policy credit, accumulated lock-free and
// applied in a single policyMu section.
type hitCredit struct {
	h     *Entry
	kind  HitKind
	saved int
	cost  float64
}

// execScratch holds the per-query working buffers of Execute's miss path:
// candidate id lists, verification cost samples and pending hit credits.
// Nothing in it escapes the query (results are built from fresh or
// lazily-empty sets), so the buffers recycle through a pool — one
// warmed-up scratch per concurrently executing query (hot-path memory
// discipline, see doc.go).
type execScratch struct {
	ids     []int
	costs   []costSample
	credits []hitCredit
}

var execScratchPool = sync.Pool{New: func() any { return new(execScratch) }}

func getExecScratch() *execScratch { return execScratchPool.Get().(*execScratch) }

func putExecScratch(sc *execScratch) {
	// Drop entry pointers so a pooled scratch never pins evicted entries.
	for i := range sc.credits {
		sc.credits[i].h = nil
	}
	sc.credits = sc.credits[:0]
	execScratchPool.Put(sc)
}

// creditHit updates policy utilities and the result's hit list. Caller
// holds policyMu.
//
//gclint:requires policyMu
func (c *Cache) creditHit(h *Entry, kind HitKind, savedTests int, savedCost float64, tick int64, hits *[]HitRef) {
	ev := &HitEvent{
		Entry:       h,
		Kind:        kind,
		SavedTests:  savedTests,
		SavedCostNs: savedCost,
		Tick:        tick,
	}
	c.policy.UpdateCacheStaInfo(ev)
	*hits = append(*hits, HitRef{EntryID: h.ID, Kind: kind, SavedTests: savedTests})
}

// estimatedCost reads one graph's cost estimate from its lock-free cell.
//
//gclint:nolocks
//gclint:noalloc
func (c *Cache) estimatedCost(gid int) float64 {
	if bits := c.costVal[gid].Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	return c.estimatedMeanCost()
}

// estimatedMeanCost reads the overall cost estimate from its lock-free
// cell.
//
//gclint:nolocks
//gclint:noalloc
func (c *Cache) estimatedMeanCost() float64 {
	if bits := c.globalVal.Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	return defaultCostNs
}

// emaAdd folds one observation into a lock-free EMA cell: the first
// observation initializes the average directly (0 bits marks an empty
// cell), later ones blend with factor alpha. Contended updates retry; the
// arithmetic matches stats.EMA, so sequential streams produce the same
// estimates the coordinator-locked engine did.
//
//gclint:nolocks
//gclint:noalloc
func emaAdd(cell *atomic.Uint64, alpha, x float64) {
	for {
		old := cell.Load()
		v := x
		if old != 0 {
			v = alpha*x + (1-alpha)*math.Float64frombits(old)
		}
		if cell.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// costSample is one measured sub-iso verification.
type costSample struct {
	gid int
	dur time.Duration
}

// verify runs the sub-iso tests over the candidate set against the
// query's dataset view, the query bound once for all of them. It holds no
// locks; measured costs are returned for the caller to fold into the EMA
// cells. The clock is read once per test: one test's end is the next
// one's start.
//
//gclint:nolocks
func (c *Cache) verify(view ftv.DatasetView, q *graph.Graph, qt ftv.QueryType, cand *bitset.Set, sc *execScratch) (*bitset.Set, []costSample) {
	out := bitset.New(view.Size())
	sc.ids = cand.AppendIndices(sc.ids[:0])
	ids := sc.ids
	if len(ids) == 0 {
		return out, nil
	}
	if cap(sc.costs) < len(ids) {
		sc.costs = make([]costSample, 0, len(ids))
	}
	costs := sc.costs[:0]
	bound := view.Bind(q, qt)
	last := time.Now()
	for _, gid := range ids {
		ok := bound.Verify(gid)
		now := time.Now()
		costs = append(costs, costSample{gid, now.Sub(last)})
		last = now
		if ok {
			out.Add(gid)
		}
	}
	bound.Release()
	sc.costs = costs
	return out, costs
}

// recordCosts folds measured verification costs into the EMA cells —
// entirely lock-free (CAS per sample).
//
//gclint:nolocks
//gclint:noalloc
func (c *Cache) recordCosts(costs []costSample) {
	for _, s := range costs {
		ns := float64(s.dur.Nanoseconds())
		emaAdd(&c.costVal[s.gid], costAlpha, ns)
		emaAdd(&c.globalVal, globalCostAlpha, ns)
	}
}

// admit stages the executed query's entry in the admission window, giving
// it its ID, and, when that fills the window, turns it before unlocking
// (the Window Manager).
//
//gclint:requires dsMu
//gclint:acquires windowMu policyMu shard
func (c *Cache) admit(e *Entry) {
	c.windowMu.Lock()
	defer c.windowMu.Unlock()
	e.ID = c.newID()
	c.window = append(c.window, e)
	if len(c.window) >= c.cfg.Window {
		c.turnWindow()
	}
}

// turnWindow ages utilities, makes room and admits the pending window,
// atomically under every shard write lock. Victims are selected among the
// RESIDENT entries before admission — the newly executed queries always
// get in, displacing the least-useful cached graphs (Figure 2(c));
// evicting after admission would instead throw away the newcomers, whose
// utilities are necessarily still zero. Caller holds windowMu; policyMu is
// taken for the policy callbacks and utility mutations (hierarchy:
// windowMu → policyMu → shard locks).
//
//gclint:requires dsMu windowMu
//gclint:acquires policyMu shard
func (c *Cache) turnWindow() {
	c.mon.windowTurns.Add(1)
	defer c.mon.endTurn(time.Now())
	c.policyMu.Lock()
	defer c.policyMu.Unlock()
	c.policy.OnWindowTurn()
	c.lockAll()
	defer c.unlockAll()

	all := c.gatherLocked()
	// Fold exact-hit credits before anything ages or ranks.
	c.foldCreditsLocked(all)
	c.foldCreditsLocked(c.window)
	for _, e := range all {
		e.age(c.cfg.DecayFactor)
		// True up this entry's byte charge: lazy reconciliation may have
		// grown its answer set on the query path, where no account can be
		// touched. A pointer compare for the entries whose set did not
		// change; keeps the memory-budget enforcement below honest in
		// LazyReconcile mode.
		c.rechargeLocked(c.shardFor(e.Fingerprint), e)
	}
	if excess := len(all) + len(c.window) - c.cfg.Capacity; excess > 0 {
		all = c.evictLocked(all, excess)
	}
	for _, e := range c.window {
		c.shardFor(e.Fingerprint).insertLocked(e)
		all = append(all, e) // window IDs exceed all admitted IDs: stays sorted
		c.mon.admissions.Add(1)
	}
	c.window = c.window[:0]

	// A window larger than the whole capacity can still overflow.
	if excess := len(all) - c.cfg.Capacity; excess > 0 {
		all = c.evictLocked(all, excess)
	}
	for c.cfg.MemoryBudget > 0 && c.Bytes() > c.cfg.MemoryBudget && len(all) > 1 {
		all = c.evictLocked(all, 1)
	}

	// Republish the feature index before the shard locks drop, so queries
	// never observe an index ahead of or behind the admitted entries.
	c.republishAllLocked()

	// Window boundaries are where the addition log gets compacted: every
	// entry this turn admitted or evicted moved the minimum entry epoch.
	c.compactAdditionsLocked()
}

// markVictims marks x distinct positions of the ID-ordered slice all in
// c.victim, as selected by the policy, and returns the marks (len(all) of
// them; the caller clears what it consumes). The policy's returned
// positions are sanitized defensively against buggy custom policies
// (duplicates or out-of-range indices are dropped; a shortfall is filled
// FIFO). Caller holds policyMu.
//
//gclint:requires policyMu
func (c *Cache) markVictims(all []*Entry, x int) []bool {
	if x > len(all) {
		x = len(all)
	}
	if cap(c.victim) < len(all) {
		c.victim = make([]bool, len(all))
	}
	marks := c.victim[:len(all)]
	n := 0
	for _, p := range c.policy.ReplacedContent(all, x) {
		if n == x {
			break
		}
		if p >= 0 && p < len(all) && !marks[p] {
			marks[p] = true
			n++
		}
	}
	if n < x {
		// Fill the shortfall oldest-first.
		order := make([]int, len(all))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return all[order[a]].InsertedAt < all[order[b]].InsertedAt
		})
		for _, p := range order {
			if n == x {
				break
			}
			if !marks[p] {
				marks[p] = true
				n++
			}
		}
	}
	return marks
}

// evictLocked removes x entries chosen by the policy from the ID-ordered
// slice all (the canonical cross-shard view) and from their owning shards,
// returning the surviving slice. Caller holds policyMu and all shard
// write locks (window turns and state restores).
//
//gclint:requires policyMu shard
func (c *Cache) evictLocked(all []*Entry, x int) []*Entry {
	if x <= 0 || len(all) == 0 {
		return all
	}
	marks := c.markVictims(all, x)
	kept := all[:0]
	for i, e := range all {
		if marks[i] {
			marks[i] = false
			c.shardFor(e.Fingerprint).removeLocked(e)
			c.mon.evictions.Add(1)
			continue
		}
		kept = append(kept, e)
	}
	// Zero the tail so evicted entries are collectable.
	for i := len(kept); i < len(all); i++ {
		all[i] = nil
	}
	return kept
}

// selfCheck cross-validates a result against the uncached method when
// enabled; any mismatch is a kernel bug, hence the panic.
func (c *Cache) selfCheck(q *graph.Graph, qt ftv.QueryType, res *Result) {
	if !c.cfg.SelfCheck {
		return
	}
	base := c.method.Run(q, qt)
	if !base.Answers.Equal(res.Answers) {
		panic(fmt.Sprintf("core: self-check failed for %s query %v: cache %v, base %v",
			qt, q, res.Answers, base.Answers))
	}
}
