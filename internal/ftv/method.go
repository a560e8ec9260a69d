package ftv

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphcache/internal/bitset"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

// VerifierFunc decides whether pattern is subgraph-isomorphic to target.
// The default is VF2; Ullmann or any custom engine can be plugged in
// (the paper's "pluggable cache" extends down to Method M components).
type VerifierFunc func(pattern, target *graph.Graph) bool

// VF2Verifier is the default verifier.
func VF2Verifier(pattern, target *graph.Graph) bool { return iso.SubIso(pattern, target) }

// FilterFactory builds a Filter over a dataset slice. Tombstoned positions
// are nil and must be tolerated (indexed as empty — the bundled filters
// all do); a Method constructed with a factory supports AddGraph, which
// rebuilds the filter over the grown dataset.
type FilterFactory func(dataset []*graph.Graph) Filter

// Method is "Method M" of the paper: a dataset, a Filter and a Verifier.
// It answers subgraph/supergraph queries exactly, and exposes its filter
// and verifier so the GraphCache kernel can run the verification stage
// over a pruned candidate set.
//
// # Dynamic datasets
//
// A Method built with NewDynamicMethod (or the bundled constructors, which
// all use one) additionally takes live mutations: AddGraph appends a graph
// under a fresh, stable id, and RemoveGraph tombstones an id without ever
// reusing it. The whole dataset state — graph slice, filter, live-id set,
// epoch and addition log — lives in one immutable snapshot behind an
// atomic pointer: mutators build a new snapshot (copy-on-write) and
// publish it with a single store, so readers never lock and never observe
// a half-applied mutation. Every mutation bumps the epoch; the addition
// log records (epoch, gid) per added graph so cache layers can reconcile
// stale answer sets by verifying only the delta — and is compacted through
// CompactAdditions once every outstanding answer set has passed a record.
// Removals keep the old filter (its postings for the dead id are masked by
// the live set — exact, because Candidates intersects with live);
// additions patch the filter incrementally when it is an InsertableFilter
// (every bundled filter is), falling back to a factory rebuild otherwise.
//
// Readers that need a consistent multi-call view (size, candidates,
// verification) must take one View and use it throughout; the plain Method
// accessors re-snapshot per call.
type Method struct {
	name    string
	verify  VerifierFunc  // nil: VF2
	factory FilterFactory // nil: static filter, AddGraph unsupported

	// mu serializes mutators; readers go through the atomic state pointer
	// and never take it. It is a leaf lock: nothing is acquired under it,
	// so callers may hold arbitrary locks of their own (the cache kernel
	// compacts the addition log from inside its window turns).
	//gclint:lock methodMu
	//gclint:leaf
	mu sync.Mutex
	// state publishes the dataset snapshot. Operations pin ONE snapshot
	// (a View) and use it throughout; re-loading mid-operation tears the
	// epoch (enforced by the snapshotonce analyzer).
	//
	//gclint:snapshot dataset
	state atomic.Pointer[methodState]

	// filterInserts / filterRebuilds split how AddGraph maintained the
	// filter: an incremental InsertableFilter.WithGraph insert (O(graph))
	// versus a full FilterFactory rebuild (O(dataset)). All bundled
	// filters are insertable, so rebuilds only happen for custom
	// factory-built filters without the capability.
	filterInserts  atomic.Int64
	filterRebuilds atomic.Int64
}

// methodState is one immutable dataset snapshot. All fields are read-only
// after publication.
//
//gclint:cow
type methodState struct {
	dataset   []*graph.Graph // by stable gid; tombstones are nil
	filter    Filter
	live      *bitset.Set // gids not tombstoned; capacity == len(dataset)
	liveCount int
	epoch     int64
	adds      []AddRecord // ascending by Epoch; never mutated in place
}

// AddRecord is one dataset addition: the graph id it introduced and the
// epoch at which it became visible. The log lets a holder of a stale
// answer set verify exactly the delta graphs instead of rescanning the
// dataset.
type AddRecord struct {
	Epoch int64
	GID   int
}

// NewMethod assembles a static method. Dataset graphs are identified by
// slice position throughout (graph ids are not consulted). verify may be
// nil, defaulting to VF2. The returned method supports RemoveGraph but not
// AddGraph (no filter factory); use NewDynamicMethod for a fully mutable
// dataset.
func NewMethod(name string, dataset []*graph.Graph, filter Filter, verify VerifierFunc) *Method {
	m := &Method{name: name, verify: verify}
	m.state.Store(initialState(dataset, filter))
	return m
}

// NewDynamicMethod assembles a method whose dataset takes live mutations:
// the filter is built — and on every AddGraph rebuilt — by the factory.
func NewDynamicMethod(name string, dataset []*graph.Graph, factory FilterFactory, verify VerifierFunc) *Method {
	m := &Method{name: name, verify: verify, factory: factory}
	m.state.Store(initialState(dataset, factory(dataset)))
	return m
}

func initialState(dataset []*graph.Graph, filter Filter) *methodState {
	live := bitset.New(len(dataset))
	liveCount := 0
	for i, g := range dataset {
		if g != nil {
			live.Add(i)
			liveCount++
		}
	}
	// A fully (or mostly) live dataset collapses to a handful of run
	// spans; the mask is immutable once published, so re-encode it into
	// its smallest container up front.
	live.Compact()
	return &methodState{
		dataset:   dataset,
		filter:    filter,
		live:      live,
		liveCount: liveCount,
	}
}

// Name returns the method's report name, e.g. "ggsx-L4/vf2".
func (m *Method) Name() string { return m.name }

// View returns the current immutable dataset snapshot. Use one View for
// any computation that must be internally consistent (candidate sets,
// sizes, delta reconciliation); the snapshot stays valid — and exact with
// respect to its own epoch — forever, even after later mutations.
//
//gclint:loads dataset
func (m *Method) View() DatasetView { return DatasetView{s: m.state.Load(), verify: m.verify} }

// Dataset returns the current dataset slice (tombstoned positions are
// nil). Callers must not modify it.
//
//gclint:cowview
//gclint:loads dataset
func (m *Method) Dataset() []*graph.Graph { return m.state.Load().dataset }

// DatasetSize returns the dataset's id space — the number of positions,
// including tombstones, hence the capacity answer bitsets are sized to.
//
//gclint:loads dataset
func (m *Method) DatasetSize() int { return len(m.state.Load().dataset) }

// LiveCount returns the number of non-tombstoned dataset graphs.
//
//gclint:loads dataset
func (m *Method) LiveCount() int { return m.state.Load().liveCount }

// Epoch returns the current dataset epoch: 0 at construction, +1 per
// mutation (addition or removal).
//
//gclint:loads dataset
func (m *Method) Epoch() int64 { return m.state.Load().epoch }

// Filter returns the method's current filter.
//
//gclint:loads dataset
func (m *Method) Filter() Filter { return m.state.Load().filter }

// Candidates runs the filtering stage, returning the candidate set C_M.
//
//gclint:pins dataset
func (m *Method) Candidates(q *graph.Graph, qt QueryType) *bitset.Set {
	return m.View().Candidates(q, qt)
}

// VerifyCandidate runs one sub-iso test between the query and dataset
// graph gid, oriented by query type: pattern=q for subgraph queries,
// pattern=dataset graph for supergraph queries.
//
//gclint:pins dataset
func (m *Method) VerifyCandidate(q *graph.Graph, gid int, qt QueryType) bool {
	return m.View().VerifyCandidate(q, gid, qt)
}

// AddGraph appends g to the dataset under a fresh, stable id (the next
// slice position — tombstoned ids are never reused) and publishes a new
// snapshot whose filter covers the grown dataset: incrementally patched
// through InsertableFilter.WithGraph when the current filter supports it
// (O(graph) — the default for every bundled filter), rebuilt through the
// factory otherwise. It returns the new graph's id. Requires a filter
// factory (NewDynamicMethod or a bundled constructor) — the factory stays
// the dynamic-method contract and the fallback when an insert is
// unavailable.
//
//gclint:acquires methodMu
//gclint:pins dataset
func (m *Method) AddGraph(g *graph.Graph) (int, error) {
	if g == nil || g.N() == 0 {
		return 0, fmt.Errorf("ftv: cannot add an empty graph")
	}
	if m.factory == nil {
		return 0, fmt.Errorf("ftv: method %q has a static filter (no factory); build it with NewDynamicMethod to support AddGraph", m.name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.state.Load()
	gid := len(old.dataset)
	dataset := make([]*graph.Graph, gid+1)
	copy(dataset, old.dataset)
	dataset[gid] = g
	var filter Filter
	if ins, ok := old.filter.(InsertableFilter); ok {
		filter = ins.WithGraph(gid, g)
		m.filterInserts.Add(1)
	} else {
		filter = m.factory(dataset)
		m.filterRebuilds.Add(1)
	}
	live := old.live.Grown(gid + 1)
	live.Add(gid)
	epoch := old.epoch + 1
	// Full slice expression: a later append can never scribble over a log
	// slice an older snapshot still exposes.
	adds := append(old.adds[:len(old.adds):len(old.adds)], AddRecord{Epoch: epoch, GID: gid})
	m.state.Store(&methodState{
		dataset:   dataset,
		filter:    filter,
		live:      live,
		liveCount: old.liveCount + 1,
		epoch:     epoch,
		adds:      adds,
	})
	return gid, nil
}

// FilterInserts returns how many AddGraph calls maintained the filter
// through an incremental InsertableFilter.WithGraph insert.
func (m *Method) FilterInserts() int64 { return m.filterInserts.Load() }

// FilterRebuilds returns how many AddGraph calls fell back to a full
// FilterFactory rebuild (the filter did not support incremental inserts).
func (m *Method) FilterRebuilds() int64 { return m.filterRebuilds.Load() }

// AdditionLogLen returns the current length of the addition log — the
// records not yet dropped by CompactAdditions.
//
//gclint:loads dataset
func (m *Method) AdditionLogLen() int { return len(m.state.Load().adds) }

// CompactAdditions drops every addition record with Epoch ≤ floor from
// the log and publishes the trimmed snapshot (the dataset, filter, live
// set and epoch are untouched — compaction is observable only through
// AddsSince). It returns the number of records dropped.
//
// Safety is the caller's contract: floor must not exceed the minimum
// epoch any outstanding epoch-stamped answer set is exact up to,
// otherwise a holder of a lower epoch would silently skip the dropped
// records when it reconciles. Records above the floor are untouched, and
// snapshots taken before the call keep their full log — compaction can
// never retroactively change what an already-obtained view reports.
//
//gclint:acquires methodMu
//gclint:pins dataset
func (m *Method) CompactAdditions(floor int64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.state.Load()
	// Epochs ascend: everything before the first record above the floor
	// goes.
	drop := sort.Search(len(old.adds), func(i int) bool { return old.adds[i].Epoch > floor })
	if drop == 0 {
		return 0
	}
	// A fresh allocation (not a re-slice) so the dropped prefix's backing
	// array becomes collectable — the whole point of compaction is keeping
	// the log's footprint bounded.
	kept := make([]AddRecord, len(old.adds)-drop)
	copy(kept, old.adds[drop:])
	m.state.Store(&methodState{
		dataset:   old.dataset,
		filter:    old.filter,
		live:      old.live,
		liveCount: old.liveCount,
		epoch:     old.epoch,
		adds:      kept,
	})
	return drop
}

// RemoveGraph tombstones dataset graph gid: the id stays allocated forever
// (answer-set positions remain stable) but the graph leaves the live set,
// so it can never again appear in a candidate or answer set. The filter is
// kept as-is — its postings for the dead id are masked by the live set —
// making removals O(dataset) copying with no index rebuild.
//
//gclint:acquires methodMu
//gclint:pins dataset
func (m *Method) RemoveGraph(gid int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.state.Load()
	if gid < 0 || gid >= len(old.dataset) {
		return fmt.Errorf("ftv: no dataset graph %d (id space [0,%d))", gid, len(old.dataset))
	}
	if old.dataset[gid] == nil {
		return fmt.Errorf("ftv: dataset graph %d is already removed", gid)
	}
	dataset := make([]*graph.Graph, len(old.dataset))
	copy(dataset, old.dataset)
	dataset[gid] = nil
	live := old.live.Clone()
	live.Remove(gid)
	m.state.Store(&methodState{
		dataset:   dataset,
		filter:    old.filter,
		live:      live,
		liveCount: old.liveCount - 1,
		epoch:     old.epoch + 1,
		adds:      old.adds,
	})
	return nil
}

// DatasetView is one immutable dataset snapshot: every accessor answers
// with respect to the same epoch, no matter what mutations land after the
// view was taken. The zero value is unusable; obtain views from
// Method.View.
//
//gclint:view dataset
type DatasetView struct {
	s      *methodState
	verify VerifierFunc
}

// Size returns the id space (positions including tombstones) — the
// capacity candidate and answer bitsets are sized to.
func (v DatasetView) Size() int { return len(v.s.dataset) }

// LiveCount returns the number of non-tombstoned graphs.
func (v DatasetView) LiveCount() int { return v.s.liveCount }

// Epoch returns the snapshot's dataset epoch.
func (v DatasetView) Epoch() int64 { return v.s.epoch }

// Graph returns dataset graph gid, or nil if tombstoned.
func (v DatasetView) Graph(gid int) *graph.Graph { return v.s.dataset[gid] }

// Live returns the live-id set. Callers must treat it as read-only.
//
//gclint:cowview
func (v DatasetView) Live() *bitset.Set { return v.s.live }

// AddsSince returns the addition records with Epoch > epoch, oldest
// first — the delta a holder of an epoch-stamped answer set must verify.
// The returned slice is shared and must not be modified.
//
//gclint:cowview
func (v DatasetView) AddsSince(epoch int64) []AddRecord {
	adds := v.s.adds
	// Epochs ascend; scan back from the tail (deltas are short-lived).
	i := len(adds)
	for i > 0 && adds[i-1].Epoch > epoch {
		i--
	}
	return adds[i:]
}

// Candidates runs the filtering stage over the snapshot: the filter's
// candidate set intersected with the live ids, so tombstoned graphs never
// reach verification even when the (removal-surviving) filter still posts
// them.
func (v DatasetView) Candidates(q *graph.Graph, qt QueryType) *bitset.Set {
	c := v.s.filter.Candidates(q, qt)
	c.And(v.s.live)
	return c
}

// VerifyCandidate runs one sub-iso test between the query and dataset
// graph gid, oriented by query type. Tombstoned gids report false.
func (v DatasetView) VerifyCandidate(q *graph.Graph, gid int, qt QueryType) bool {
	g := v.s.dataset[gid]
	if g == nil {
		return false
	}
	pattern, target := q, g
	if qt == Supergraph {
		pattern, target = g, q
	}
	if v.verify == nil {
		return iso.SubIso(pattern, target)
	}
	return v.verify(pattern, target)
}

// BoundQuery is one query bound to a dataset view for the verification
// stage: what a test needs of the query is set up once, not once per
// candidate. A subgraph query under the default verifier holds a VF2
// matcher with the query as its pattern — Method M's filter has already
// chosen the candidates, so VF2's own label-degree screen is skipped; any
// other query (a supergraph query, whose pattern changes with every
// candidate, or a Method with a custom VerifierFunc) tests through
// VerifyCandidate. A BoundQuery is a single-goroutine object; Release it
// when the stage is done.
type BoundQuery struct {
	view    DatasetView
	q       *graph.Graph
	qt      QueryType
	matcher *iso.Matcher
}

// Bind binds q for verification against the view's graphs.
func (v DatasetView) Bind(q *graph.Graph, qt QueryType) BoundQuery {
	b := BoundQuery{view: v, q: q, qt: qt}
	if qt == Subgraph && v.verify == nil {
		b.matcher = iso.Bind(q, iso.Options{})
	}
	return b
}

// Verify is VerifyCandidate for the bound query.
//
//gclint:noalloc
func (b *BoundQuery) Verify(gid int) bool {
	if b.matcher == nil {
		return b.view.VerifyCandidate(b.q, gid, b.qt)
	}
	g := b.view.s.dataset[gid]
	if g == nil {
		return false
	}
	ok, _ := b.matcher.Match(g)
	return ok
}

// Release returns the bound matcher, if any, to its pool.
func (b *BoundQuery) Release() {
	if b.matcher != nil {
		b.matcher.Release()
		b.matcher = nil
	}
}

// Result reports one query execution.
type Result struct {
	// Answers is the exact answer set as a bitset over dataset positions.
	Answers *bitset.Set
	// CandidateCount is |C_M| after filtering.
	CandidateCount int
	// Tests is the number of sub-iso tests executed (== CandidateCount for
	// a plain FTV run; smaller when the cache pruned the candidates).
	Tests int
	// FilterTime and VerifyTime split the processing cost.
	FilterTime time.Duration
	// VerifyTime is the total verification wall time.
	VerifyTime time.Duration
}

// TotalTime returns filter plus verification time.
func (r *Result) TotalTime() time.Duration { return r.FilterTime + r.VerifyTime }

// Run executes the query with plain filter-then-verify (no cache) over
// one consistent snapshot of the dataset.
//
//gclint:pins dataset
func (m *Method) Run(q *graph.Graph, qt QueryType) *Result {
	v := m.View()
	t0 := time.Now()
	cands := v.Candidates(q, qt)
	filterTime := time.Since(t0)

	answers := bitset.New(v.Size())
	tests := 0
	t1 := time.Now()
	cands.ForEach(func(gid int) bool {
		tests++
		if v.VerifyCandidate(q, gid, qt) {
			answers.Add(gid)
		}
		return true
	})
	return &Result{
		Answers:        answers,
		CandidateCount: cands.Count(),
		Tests:          tests,
		FilterTime:     filterTime,
		VerifyTime:     time.Since(t1),
	}
}

// NewGGSXMethod is a convenience constructor for the demo deployment's
// Method M: GGSX filtering with VF2 verification. The method is dynamic:
// AddGraph patches the GGSX trie in place through a copy-on-write
// incremental insert (O(graph), never a full rebuild).
func NewGGSXMethod(dataset []*graph.Graph, maxLen int) *Method {
	return NewDynamicMethod(fmt.Sprintf("ggsx-L%d/vf2", maxLen), dataset,
		func(ds []*graph.Graph) Filter { return NewGGSX(ds, maxLen) }, nil)
}
