package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
// Admitted entries live in one ID-ordered resident list, published to
// readers as one immutable view (index.go) with flat arrays of screening
// keys per query type and a fingerprint table. The
// expensive stages of a query — Method M filtering, hit-detection iso
// tests and candidate verification — run without holding any lock at
// all: they operate on the immutable dataset, on immutable entry fields
// (Graph, Answers, signatures) and on that view.
//
// An exact hit on an admitted entry takes no lock: the probe reads the
// published fingerprint table and the crediting is a word of the
// caller's Monitor stripe, folded in later by foldCreditsLocked. Every
// other query takes mu briefly: to compare fingerprints against the
// pending window after the published probe found nothing, to credit its
// sub/super hits (counter arithmetic), and — at the end of a path that
// already cost a filter run and a verification — to append the executed
// query to the window under a freshly claimed entry ID. The
// verification-cost EMAs are lock-free CAS cells. mu guards the window,
// ID allocation, the resident list, the replacement policy and the
// per-entry utility fields the policy mutates.
//
// There is one admission window (the paper's Window Manager). When it
// fills, the staging goroutine turns it stop-the-world: under mu it folds
// credits, ages utilities, selects the lowest-ranked victims over the
// whole cache (without sorting it), evicts, admits the window and
// publishes a fresh view (see index.go for the publication rules).
// Capacity is strict at every turn.
//
// mu is the cache's one lock; the only other lock a query or a mutation
// meets is the method's leaf mutex (ftv.Method). A query pins its dataset
// with one Method.View load, and live dataset mutations
// (AddGraph/RemoveGraph, see mutate.go) take no cache lock and wait for
// no query: each entry's answers name the dataset history they are exact
// for, and a reader brings them forward to its own view. Operational
// counters (Monitor) are atomics and bypass locks entirely. Behaviour on
// many cores is unmeasured: the committed runs are from two-CPU machines.
//
// # Determinism
//
// The window and the resident list are ID-ordered and a turn ranks the
// resident list, so for a sequential query stream the answers, hit
// classes, entry IDs, utilities and cache contents are deterministic.
// That is exact for timing-independent policies (LRU, FIFO, POP, PIN);
// PINC and the default HD rank victims by measured verification
// nanoseconds, so their eviction choices can vary between physical runs.
// Under concurrent submission admission order (and hence eviction
// choices) depends on goroutine scheduling, but every individual answer
// set remains exact.
//
// The lock hierarchy is mu alone, plus the method's leaf mutex. Each
// function's doc comment says whether it takes mu, needs its caller to
// hold it (a …Locked name says so too) or takes no lock; doc.go lists
// the runtime tests that hold each of these contracts.
type Cache struct {
	method *ftv.Method
	cfg    Config
	policy Policy

	// published is the resident list: every admitted entry, in ascending
	// ID (admission) order — the order the policy ranks — with the index
	// over it. Immutable, replaced whole by publishLocked under mu, loaded
	// once per probe or scan.
	published atomic.Pointer[resident]

	// mu is the cache's lock. It guards the admission window, ID
	// allocation, the resident list, the replacement policy and the
	// mutable per-entry utility fields the policy reads and writes (Hits,
	// LastUsed, SavedTests, SavedCostNs): the window probe, staging,
	// sub/super hit crediting, window turns (folding exact-hit credit
	// cells, utility aging, admission and eviction), Entries, snapshot
	// encoding and restores. Held for an append, a fingerprint comparison
	// per pending entry or counter arithmetic per hit, except by a turn;
	// never across iso tests, dataset scans or a snapshot's writes.
	mu     sync.Mutex
	window []*Entry

	// nextID is the next entry ID. Claimed under mu as an entry is staged,
	// so the window's staging order is ascending in ID.
	nextID int

	// tick is the global miss sequence number: a query that leaves the
	// exact path claims the next one (atomic, before any lock). An exact
	// hit only loads it, and stamps it into its entry's lastHit when a
	// miss moved it since that stamp, so recency is the last miss before
	// an entry's latest hit (doc.go). Misses write it, so the padding
	// keeps it off the cache lines of the fields every query only reads
	// (method, cfg, published).
	_    [56]byte
	tick atomic.Int64
	_    [56]byte

	// costs and globalVal are lock-free EMA cells tracking per-dataset-
	// graph (and overall) verification cost in float64 ns, stored as bits
	// (0 bits = no estimate yet). Updates are CAS loops; reads are single
	// atomic loads, so neither hit crediting nor cost recording takes any
	// lock.
	costs     costCells
	globalVal atomic.Uint64

	// victim is evictLocked's reusable mark-per-position scratch, all
	// false between evictions. Guarded by mu.
	victim []bool

	// empty is the frozen empty set exact hits return as Excluded and
	// Survivors, and unpruned misses as Excluded (see emptySet).
	empty atomic.Pointer[bitset.Set]

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
	c := &Cache{method: method, cfg: cfg, policy: cfg.Policy}
	c.published.Store(&resident{})
	return c, nil
}

// Method returns the underlying Method M.
func (c *Cache) Method() *ftv.Method { return c.method }

// PolicyName returns the active replacement policy's name.
func (c *Cache) PolicyName() string { return c.policy.Name() }

// Len returns the number of admitted entries (excluding the window): the
// length of the published resident list. Takes no lock.
func (c *Cache) Len() int {
	return len(c.published.Load().all)
}

// WindowLen returns the number of entries pending admission.
func (c *Cache) WindowLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.window)
}

// Bytes returns the estimated resident size of admitted entries, the
// total the published view carries: Σ Entry.Bytes() over the resident
// list as of the last window turn or restore (asserted by
// TestResidencyAccountAgreement). Takes no lock.
func (c *Cache) Bytes() int {
	return c.published.Load().bytes
}

// Stats returns a snapshot of the operational counters.
func (c *Cache) Stats() Snapshot { return c.mon.Snapshot() }

// Entries returns the admitted entries in admission order as defensive
// copies: the Entry structs are snapshots taken under mu (so the mutable
// utility fields are read race-free; admissions and evictions also
// serialize on mu) after folding pending exact-hit credits; Graph,
// Answers and the signature fields still alias the cache's immutable
// originals. Every answer set is first brought forward to the current
// dataset (reconcileResident, before mu), so Answers is exact for the
// dataset as of the call. Intended for demonstrators and tests
// inspecting cache contents.
func (c *Cache) Entries() []*Entry {
	view := c.method.View()
	c.reconcileResident(view)
	c.mu.Lock()
	defer c.mu.Unlock()
	all := c.published.Load().all
	c.foldCreditsLocked(all)
	out := make([]*Entry, len(all))
	for i, e := range all {
		c.answersFor(e, view) // a load, unless a turn admitted e since the pass
		cp := *e
		out[i] = &cp
	}
	return out
}

// Execute processes one query through the cache. The returned Result is a
// read-only view: an exact hit's Result is shared with every other hit on
// the entry's answer state, and its answer set IS the entry's published
// (frozen) set, so callers Clone before mutating (see the Result doc
// comment). Execute is safe to call from any number of goroutines; see
// the Cache doc comment for what runs in parallel and what serializes.
func (c *Cache) Execute(q *graph.Graph, qt ftv.QueryType) (*Result, error) {
	if q == nil {
		return nil, fmt.Errorf("core: nil query graph")
	}
	if qt > ftv.Supergraph {
		return nil, fmt.Errorf("core: unknown query type %d", qt)
	}
	// One view for the whole query: filtering, hit reconciliation,
	// verification, self-check and admission all see the same epoch.
	return c.execute(c.method.View(), q, qt)
}

// execute is Execute on a pinned dataset view.
func (c *Cache) execute(view ftv.DatasetView, q *graph.Graph, qt ftv.QueryType) (*Result, error) {
	mon := &c.mon.hot[readSlot()]
	mon.queries.Add(1)
	// Stage 0: fingerprint only. The exact-match probe consults nothing
	// else, so the containment summary (feature vector, trie row) is
	// deferred until a miss is certain. The fingerprint itself is memoized
	// on the immutable query graph.
	fp := q.WLFingerprint(3)

	// Stage 1: exact-match fast path — zero dataset tests and no clock
	// read: all it costs is cache overhead, which a clock pair would
	// dominate. A caller that wants its latency times the call.
	if e := c.findExact(q, qt, fp); e != nil {
		if res := c.serveExact(e, view, mon); res != nil {
			c.selfCheck(view, q, qt, res)
			return res, nil
		}
	}
	tick := c.tick.Add(1)
	n := view.Size()

	// From here on the wall clock is read once: every stage boundary is an
	// offset from start, which reads only the monotonic clock.
	start := time.Now()

	// Stage 2: Method M filtering (lock-free: the view's filter index is
	// immutable). The returned set is freshly built for this query, so the
	// algebra below may consume it in place once its count is captured.
	// The query's trie walk stays open through hit detection.
	walk := view.Walk(q)
	cm := walk.Candidates(qt)
	filterTime := time.Since(start)
	cmCount := cm.Count()

	sc := getExecScratch()
	defer putExecScratch(sc)

	// Stage 3: sub/super hit detection over a point-in-time snapshot of
	// the cache, budgeted by cmCount, screened against the walk. The iso
	// tests run without any lock; entries evicted mid-detection stay
	// sound (their answer sets remain exact over the immutable dataset).
	fv, d := graph.ExtractFeatures(q), walk.Decoded()
	hs := c.detectHits(view, q, qt, fv, d, cmCount, sc)
	row := d.Row
	walk.Release()
	hitTime := time.Since(start) - filterTime
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
	// cost cells are atomic); only the policy updates run under mu,
	// keeping the critical section to counter arithmetic per hit. The
	// saved-set intersections/differences iterate word-parallel over the
	// operands directly (ForEachAnd/ForEachAndNot) — no intermediate set
	// is materialized per hit.
	//
	// A hit's answers must first be brought to the query's view: stale
	// sets miss graphs added since the entry was last reconciled, which
	// would silently shrink S (lost savings — sound) but also wrongly
	// exclude candidates via S′ (lost answers — unsound). A hit already
	// brought past the view is dropped, for the same reason.
	credits := sc.credits[:0]
	sure := bitset.New(n)
	for _, h := range answerHits {
		ha := c.answersFor(h, view)
		if ha == nil {
			continue
		}
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
		ha := c.answersFor(h, view)
		if ha == nil {
			continue
		}
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
		hits = make([]HitRef, len(credits))
		c.mu.Lock()
		for i, cr := range credits {
			c.creditHit(&sc.ev, cr, tick)
			hits[i] = HitRef{EntryID: cr.h.ID, Kind: cr.kind, SavedTests: cr.saved}
		}
		c.mu.Unlock()
	}
	// S′ = C_M \ (C_M ∩ ⋂ A(h′)) — provably empty (the shared empty set)
	// when no pruning hit narrowed the candidates.
	var excluded *bitset.Set
	if candPruned != cm {
		excluded = cm.Clone()
		excluded.AndNot(candPruned)
	} else {
		excluded = c.emptySet(n)
	}

	// C = (C_M ∩ ⋂ A(h')) \ S, consuming candPruned in place (when it
	// still aliases cm this retires cm too — its count lives on in
	// cmCount).
	cand := candPruned
	cand.AndNot(sure)

	var subs, supers int64
	for _, cr := range credits {
		if cr.kind == SubHit {
			subs++
		} else {
			supers++
		}
	}
	if subs > 0 {
		c.mon.subHitQueries.Add(1)
		c.mon.subHits.Add(subs)
	}
	if supers > 0 {
		c.mon.superHitQueries.Add(1)
		c.mon.superHits.Add(supers)
	}

	// Stage 5: verification of the reduced candidate set (lock-free; cost
	// samples fold into the EMA cells with CAS, no lock either).
	tests := cand.Count()
	survivors, costs, verifyTime := c.verify(view, q, qt, cand, sc, start)
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
	c.mon.hitNs.Add(hitTime.Nanoseconds())
	c.mon.verifyNs.Add(verifyTime.Nanoseconds())

	res := &Result{
		Answers:        answers,
		BaseCandidates: cmCount,
		Tests:          tests,
		Sure:           sure,
		Excluded:       excluded,
		Survivors:      survivors,
		Hits:           hits,
		FilterTime:     filterTime,
		HitTime:        hitTime,
		VerifyTime:     verifyTime,
	}
	c.selfCheck(view, q, qt, res)

	// Stage 6: admission via the window manager. The entry's answers are
	// exact for the view, and a later reader or turn brings them
	// forward. It is built — answers cloned and compacted — before admit
	// takes any lock.
	c.admit(newEntry(q, qt, answers.Clone(), view, cmCount, fp, fv, row, tick), view)
	return res, nil
}

// serveExact answers a query from the isomorphic entry e: O(1), no clock
// read, and in steady state the only writes are to the caller's Monitor
// stripe (doc.go, hot-path discipline). Answers and Sure (A = S) are e's
// published, frozen set itself; Excluded and Survivors the cache's shared
// empty set. A hit on a state current for the view returns the state's
// shared Result (answersAt.exact), which the first such hit builds, so
// it allocates nothing after that. It returns nil, and credits nothing,
// when a newer reader has brought e past the view. Takes no lock, and
// loads e's answer cell once.
func (c *Cache) serveExact(e *Entry, view ftv.DatasetView, mon *hotCounters) *Result {
	a := e.ans.p.Load()
	current := a.current(view)
	var res *Result
	ans := a.set
	if current {
		res = a.exact.Load()
	} else if ans = c.answersFor(e, view); ans == nil {
		return nil
	}
	// Recency first (a monotonic max, written only when a miss moved the
	// tick since e's last stamp), count second, so a racing fold that sees
	// this hit's count also sees a lastHit at least as new. The count goes
	// to the stripe's credit table, or to e's own cell when e's word there
	// is taken.
	tick := c.tick.Load()
	for {
		old := e.ans.lastHit.Load()
		if tick <= old || e.ans.lastHit.CompareAndSwap(old, tick) {
			break
		}
	}
	if !mon.credits.add(e.ID) {
		e.ans.pendingExact.Add(1)
	}
	saved := e.BaseCandidates
	mon.exactHits.Add(1)
	mon.testsSaved.Add(int64(saved))
	if res != nil {
		return res
	}
	empty := c.emptySet(ans.Len())
	res = &Result{
		Answers:        ans,
		BaseCandidates: saved,
		Sure:           ans,
		Excluded:       empty,
		Survivors:      empty,
		ExactHit:       true,
		hit:            [1]HitRef{{EntryID: e.ID, Kind: ExactHit, SavedTests: saved}},
	}
	res.Hits = res.hit[:]
	if current {
		a.exact.CompareAndSwap(nil, res)
	}
	return res
}

// emptySet returns the cache's frozen empty set of capacity n, rebuilding
// the memo when the dataset's size moved. Racing rebuilds store equal
// sets, and every caller gets a set of its own view's size. Takes no
// lock.
func (c *Cache) emptySet(n int) *bitset.Set {
	if s := c.empty.Load(); s != nil && s.Len() == n {
		return s
	}
	s := bitset.New(n)
	c.empty.Store(s)
	return s
}

// foldCreditsLocked drains the stripes' credit tables into the entries'
// credit cells, then the cells of the listed entries into the policy:
// k > 0 pending hits become ONE event of Count k at the entry's lastHit
// tick, priced once (fold points: doc.go). Caller holds mu.
func (c *Cache) foldCreditsLocked(lists ...[]*Entry) {
	c.drainCreditsLocked()
	for _, entries := range lists {
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
}

// drainCreditsLocked empties every stripe's credit table into the cells
// of the entries it counted, each found by ID in the resident list, then
// in the window. A word whose entry is in neither counted an entry since
// evicted or replaced by a restore (IDs are never reused): its hits are
// dropped, as an evicted entry's pending credit is. Caller holds mu.
func (c *Cache) drainCreditsLocked() {
	for i := range c.mon.hot {
		t := &c.mon.hot[i].credits
		for j := range t {
			if t[j].Load() == 0 {
				continue // a load, not a swap: idle words' lines stay shared
			}
			w := t[j].Swap(0)
			if e := c.entryByIDLocked(int(w>>creditCountBits) - 1); e != nil {
				e.ans.pendingExact.Add(int64(w & creditCountMask))
			}
		}
	}
}

// entryByIDLocked returns the resident or pending entry with the given
// ID, or nil: both lists are ID-ordered. Caller holds mu.
func (c *Cache) entryByIDLocked(id int) *Entry {
	for _, list := range [2][]*Entry{c.published.Load().all, c.window} {
		if i, ok := slices.BinarySearchFunc(list, id, func(e *Entry, id int) int { return cmp.Compare(e.ID, id) }); ok {
			return list[i]
		}
	}
	return nil
}

// hitCredit is one hit's pending policy credit, accumulated lock-free and
// applied in a single mu section.
type hitCredit struct {
	h     *Entry
	kind  HitKind
	saved int
	cost  float64
}

// execScratch holds the per-query working buffers of Execute's miss path:
// hit candidates (accepted hits are prefixes of them), their ranking,
// pending hit credits and the one HitEvent they are delivered in,
// candidate id lists and verification cost samples. Nothing in it escapes
// the query (results are built from fresh or lazily-empty sets), so the
// buffers recycle through a pool — one warmed-up scratch per concurrently
// executing query (hot-path memory discipline, see doc.go).
type execScratch struct {
	sub, super []*Entry
	ranked     []rankedCandidate
	credits    []hitCredit
	ev         HitEvent
	ids        []int
	costs      []costSample
}

var execScratchPool = sync.Pool{New: func() any { return new(execScratch) }}

func getExecScratch() *execScratch { return execScratchPool.Get().(*execScratch) }

func putExecScratch(sc *execScratch) {
	// Drop entry pointers so a pooled scratch never pins evicted entries.
	clear(sc.sub)
	clear(sc.super)
	clear(sc.credits)
	sc.sub, sc.super, sc.credits = sc.sub[:0], sc.super[:0], sc.credits[:0]
	sc.ev = HitEvent{}
	execScratchPool.Put(sc)
}

// creditHit delivers one sub/super hit's credit to the policy in ev, the
// query's one reused event (a policy must not retain it, see
// Policy.UpdateCacheStaInfo). Caller holds mu.
func (c *Cache) creditHit(ev *HitEvent, cr hitCredit, tick int64) {
	*ev = HitEvent{Entry: cr.h, Kind: cr.kind, SavedTests: cr.saved, SavedCostNs: cr.cost, Tick: tick}
	c.policy.UpdateCacheStaInfo(ev)
}

// estimatedCost reads one graph's cost estimate from its lock-free cell.
// Takes no lock.
func (c *Cache) estimatedCost(gid int) float64 {
	if bits := c.costs.load(gid); bits != 0 {
		return math.Float64frombits(bits)
	}
	return c.estimatedMeanCost()
}

// costCells is the per-graph cost-EMA array, indexed by gid and read for
// any gid a view produces, including graphs another cache added to the
// shared Method. The cells live in fixed-size chunks that never move, so
// no growth loses a concurrent CAS; the chunk directory is copy-on-write
// behind one atomic pointer and grows, without a lock, on the first write
// past its end.
type costCells struct {
	dir atomic.Pointer[[]*costChunk]
}

const costChunkBits = 8

type costChunk [1 << costChunkBits]atomic.Uint64

// load reads gid's cell; a cell never written reads 0 (no estimate).
func (cc *costCells) load(gid int) uint64 {
	if d := cc.dir.Load(); d != nil && gid>>costChunkBits < len(*d) {
		return (*d)[gid>>costChunkBits][gid&(1<<costChunkBits-1)].Load()
	}
	return 0
}

// cell returns gid's cell, growing the directory to cover it. Racing
// growers retry until one directory lands; the losers' chunks are garbage
// before anyone wrote them.
func (cc *costCells) cell(gid int) *atomic.Uint64 {
	k := gid >> costChunkBits
	for {
		old := cc.dir.Load()
		var d []*costChunk
		if old != nil {
			d = *old
		}
		if k < len(d) {
			return &d[k][gid&(1<<costChunkBits-1)]
		}
		grown := append(make([]*costChunk, 0, k+1), d...)
		for len(grown) <= k {
			grown = append(grown, new(costChunk))
		}
		cc.dir.CompareAndSwap(old, &grown)
	}
}

// estimatedMeanCost reads the overall cost estimate from its lock-free
// cell. Takes no lock.
func (c *Cache) estimatedMeanCost() float64 {
	if bits := c.globalVal.Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	return defaultCostNs
}

// emaAdd folds one observation into a lock-free EMA cell: the first
// observation initializes the average directly (0 bits marks an empty
// cell), later ones blend with factor alpha. Contended updates retry, so
// sequential streams produce the same estimates the coordinator-locked
// engine did. Takes no lock.
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
// cells, with the stage's time. The clock is read as an offset from the
// query's start once per test plus once before the first (after binding,
// so no sample carries the bind): one test's end is the next one's start,
// and the last test's end closes the stage. An empty candidate set reads
// no clock and takes no time.
func (c *Cache) verify(view ftv.DatasetView, q *graph.Graph, qt ftv.QueryType, cand *bitset.Set, sc *execScratch, start time.Time) (*bitset.Set, []costSample, time.Duration) {
	out := bitset.New(view.Size())
	sc.ids = cand.AppendIndices(sc.ids[:0])
	ids := sc.ids
	if len(ids) == 0 {
		return out, nil, 0
	}
	if cap(sc.costs) < len(ids) {
		sc.costs = make([]costSample, 0, len(ids))
	}
	costs := sc.costs[:0]
	bound := view.Bind(q, qt)
	first := time.Since(start)
	last := first
	for _, gid := range ids {
		ok := bound.Verify(gid)
		now := time.Since(start)
		costs = append(costs, costSample{gid, now - last})
		last = now
		if ok {
			out.Add(gid)
		}
	}
	bound.Release()
	sc.costs = costs
	return out, costs, last - first
}

// recordCosts folds measured verification costs into the EMA cells —
// entirely lock-free (CAS per sample).
func (c *Cache) recordCosts(costs []costSample) {
	for _, s := range costs {
		ns := float64(s.dur.Nanoseconds())
		emaAdd(c.costs.cell(s.gid), costAlpha, ns)
		emaAdd(&c.globalVal, globalCostAlpha, ns)
	}
}

// admit stages the executed query's entry in the admission window, giving
// it its ID, and, when that fills the window, turns it over the query's
// view before unlocking (the Window Manager).
func (c *Cache) admit(e *Entry, view ftv.DatasetView) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.ID = c.nextID
	c.nextID++
	c.window = append(c.window, e)
	if len(c.window) >= c.cfg.Window {
		c.turnWindow(view)
	}
}

// turnWindow ages utilities, makes room and admits the pending window.
// Victims are selected among the RESIDENT entries before admission — the
// newly executed queries always get in, displacing the least-useful cached
// graphs (Figure 2(c)); evicting after admission would instead throw away
// the newcomers, whose utilities are necessarily still zero. Caller holds
// mu, under which it staged the entry that filled the window. Removals
// up to the view are masked from every entry first, so the credits are
// priced, and the bytes tallied, over sets without them. The next list
// is a fresh slice: a reader holding the old view keeps its list.
func (c *Cache) turnWindow(view ftv.DatasetView) {
	c.mon.windowTurns.Add(1)
	defer c.mon.endTurn(time.Now())

	all := c.published.Load().all
	bytes := 0
	for _, list := range [][]*Entry{all, c.window} {
		for _, e := range list {
			bytes += c.maskRemovalsLocked(e, view)
		}
	}
	// Fold exact-hit credits before anything ages or ranks.
	c.foldCreditsLocked(all, c.window)
	for _, e := range all {
		e.age(decayFactor)
	}
	excess := len(all) + len(c.window) - c.cfg.Capacity
	next, freed := c.evictLocked(make([]*Entry, 0, min(len(all)+len(c.window), c.cfg.Capacity)), all, excess)
	// A window larger than the whole capacity evicts from itself too.
	next, overflow := c.evictLocked(next, c.window, excess-len(all))
	c.mon.admissions.Add(int64(len(c.window)))
	c.window = c.window[:0]

	// Publish before mu drops: the next query of a sequential stream
	// sees exactly the admitted entries.
	c.publishLocked(next, bytes-freed-overflow)
}

// markVictims marks x distinct positions of the ID-ordered slice all in
// c.victim, as selected by the policy, and returns the marks (len(all) of
// them; the caller clears what it consumes). The policy's returned
// positions are sanitized defensively against buggy custom policies
// (duplicates or out-of-range indices are dropped; a shortfall is filled
// oldest-admitted first, which is ID order). Caller holds mu.
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
	for p := 0; n < x; p++ {
		if !marks[p] {
			marks[p] = true
			n++
		}
	}
	return marks
}

// evictLocked appends to dst the entries of the ID-ordered list that
// survive the eviction of x of them, chosen by the policy, and returns
// dst and the victims' Bytes(). It only reads list, which may be the
// published one. Caller holds mu (window turns and state restores).
func (c *Cache) evictLocked(dst, list []*Entry, x int) ([]*Entry, int) {
	if x <= 0 {
		return append(dst, list...), 0
	}
	marks := c.markVictims(list, x)
	freed := 0
	for i, e := range list {
		if !marks[i] {
			dst = append(dst, e)
			continue
		}
		marks[i] = false
		freed += e.Bytes()
		c.mon.evictions.Add(1)
	}
	return dst, freed
}

// selfCheck cross-validates a result against the uncached method on the
// query's view when enabled; any mismatch is a kernel bug, hence the
// panic.
func (c *Cache) selfCheck(view ftv.DatasetView, q *graph.Graph, qt ftv.QueryType, res *Result) {
	if !c.cfg.SelfCheck {
		return
	}
	base := view.Run(q, qt)
	if !base.Answers.Equal(res.Answers) {
		panic(fmt.Sprintf("core: self-check failed for %s query %v: cache %v, base %v",
			qt, q, res.Answers, base.Answers))
	}
}
