package ftv

import (
	"fmt"
	"sync"
	"sync/atomic"

	"graphcache/internal/bitset"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

// VerifierFunc decides whether pattern is subgraph-isomorphic to target.
// The default is VF2; any custom engine can be plugged in (the paper's
// "pluggable cache" extends down to Method M components).
type VerifierFunc func(pattern, target *graph.Graph) bool

// Method is "Method M" of the paper: a dataset, a Filter and a Verifier.
// It answers subgraph/supergraph queries exactly, and exposes its filter
// and verifier so the GraphCache kernel can run the verification stage
// over a pruned candidate set.
//
// # Dynamic datasets
//
// A Method takes live mutations: AddGraph appends a graph under a fresh,
// stable id, and RemoveGraph tombstones an id without ever reusing it.
// The whole dataset state — graphs, filter, live-id set and epoch — lives
// in one immutable snapshot behind an atomic pointer: mutators build a new
// snapshot and publish it with a single store, so readers never lock and
// never observe a half-applied mutation. The new snapshot shares what the
// mutation leaves alone: the graphs are a chunked copy-on-write array, so
// a mutation copies its directory and the one 256-graph chunk it writes,
// and the live-id set is copied (⌈n/64⌉ dense words at most). Every mutation bumps the epoch. Every addition appends
// one id, so a holder of an answer set sized to an older id space
// reconciles it by verifying the ids past the set's length; removals are
// listed in order (Removals, Removed, one more chunked array), so it
// drops exactly the graphs removed since its own snapshot. Removals keep
// the old filter (its postings for the dead id are masked by the live set
// — exact, because Candidates intersects with live); additions patch the
// filter incrementally through Filter.WithGraph.
//
// Readers take one View and use it throughout: size, candidates and
// verification are DatasetView methods, so every call of an operation
// answers for the same snapshot. Method.Run takes its own View.
type Method struct {
	name   string
	verify VerifierFunc // nil: VF2

	// mu serializes mutators; readers go through the atomic state pointer
	// and never take it. It is a leaf lock: nothing is acquired under it,
	// so callers may hold locks of their own (the cache kernel mutates the
	// method holding none).
	mu sync.Mutex
	// state publishes the dataset snapshot. Operations pin ONE snapshot
	// (a View) and use it throughout; re-loading mid-operation tears the
	// epoch (the cache kernel's stale-view tests and SelfCheck suites
	// catch a query that does).
	state atomic.Pointer[methodState]
}

// methodState is one immutable dataset snapshot. All fields are read-only
// after publication.
type methodState struct {
	dataset   chunked[*graph.Graph] // by stable gid; tombstones are nil
	filter    Filter
	live      *bitset.Set // gids not tombstoned; capacity == len(dataset)
	liveCount int
	epoch     int64
	removed   chunked[int] // the tombstoned ids in removal order
}

// NewMethod assembles a method from a filter built over dataset. Dataset
// graphs are identified by slice position throughout (graph ids are not
// consulted). verify may be nil, defaulting to VF2.
func NewMethod(name string, dataset []*graph.Graph, filter Filter, verify VerifierFunc) *Method {
	m := &Method{name: name, verify: verify}
	m.state.Store(initialState(dataset, filter))
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
	// A fully (or mostly) live dataset is dense words, a mostly dead one
	// sparse ids; the mask is immutable once published, so re-encode it
	// into its smaller container up front.
	live.Compact()
	return &methodState{
		dataset:   chunkedOf(dataset),
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
func (m *Method) View() DatasetView { return DatasetView{s: m.state.Load(), verify: m.verify} }

// Filter returns the method's current filter.
func (m *Method) Filter() Filter { return m.state.Load().filter }

// AddGraph appends g to the dataset under a fresh, stable id (the next
// position — tombstoned ids are never reused) and publishes a new
// snapshot whose filter covers the grown dataset, patched through
// Filter.WithGraph. Under GGSX that enumerates g's paths and
// copies the trie nodes they touch (of a bitmap node, one 64-byte block
// per digit g's count sets plus their directories; a list is packed anew
// with the new posting), and the per-graph arrays of the filter
// and of the method copy one chunk plus their directory each. It returns
// the new graph's id.
func (m *Method) AddGraph(g *graph.Graph) (int, error) {
	if g == nil || g.N() == 0 {
		return 0, fmt.Errorf("ftv: cannot add an empty graph")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.state.Load()
	gid := old.dataset.Len()
	filter := old.filter.WithGraph(gid, g)
	live := old.live.Grown(gid + 1)
	live.Add(gid)
	m.state.Store(&methodState{
		dataset:   old.dataset.With(gid, g),
		filter:    filter,
		live:      live,
		liveCount: old.liveCount + 1,
		epoch:     old.epoch + 1,
		removed:   old.removed,
	})
	return gid, nil
}

// RemoveGraph tombstones dataset graph gid: the id stays allocated forever
// (answer-set positions remain stable) but the graph leaves the live set,
// so it can never again appear in a candidate or answer set. The filter is
// kept as-is — its postings for the dead id are masked by the live set —
// so a removal copies one chunk of the graph array, its directory and the
// live-id set, and rebuilds no index.
func (m *Method) RemoveGraph(gid int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.state.Load()
	if gid < 0 || gid >= old.dataset.Len() {
		return fmt.Errorf("ftv: no dataset graph %d (id space [0,%d))", gid, old.dataset.Len())
	}
	if old.dataset.At(gid) == nil {
		return fmt.Errorf("ftv: dataset graph %d is already removed", gid)
	}
	live := old.live.Clone()
	live.Remove(gid)
	m.state.Store(&methodState{
		dataset:   old.dataset.With(gid, nil),
		filter:    old.filter,
		live:      live,
		liveCount: old.liveCount - 1,
		epoch:     old.epoch + 1,
		removed:   old.removed.With(old.removed.Len(), gid),
	})
	return nil
}

// DatasetView is one immutable dataset snapshot: every accessor answers
// with respect to the same epoch, no matter what mutations land after the
// view was taken. The zero value is unusable; obtain views from
// Method.View.
type DatasetView struct {
	s      *methodState
	verify VerifierFunc
}

// Size returns the id space (positions including tombstones) — the
// capacity candidate and answer bitsets are sized to.
func (v DatasetView) Size() int { return v.s.dataset.Len() }

// LiveCount returns the number of non-tombstoned graphs.
func (v DatasetView) LiveCount() int { return v.s.liveCount }

// Epoch returns the snapshot's dataset epoch.
func (v DatasetView) Epoch() int64 { return v.s.epoch }

// Removals returns how many graphs the snapshot's history removed, and
// Removed(i) the i-th of them, oldest first: a set exact for a snapshot
// with r removals is exact for this one's once it drops Removed(r) up to
// Removed(Removals()-1) and takes in the ids appended since.
func (v DatasetView) Removals() int { return v.s.removed.Len() }

// Removed returns the i-th removed id, 0 ≤ i < Removals.
func (v DatasetView) Removed(i int) int { return v.s.removed.At(i) }

// Graph returns dataset graph gid, or nil if tombstoned.
func (v DatasetView) Graph(gid int) *graph.Graph { return v.s.dataset.At(gid) }

// Live returns the live-id set. Callers must treat it as read-only.
func (v DatasetView) Live() *bitset.Set { return v.s.live }

// Candidates runs the filtering stage over the snapshot: the filter's
// candidate set intersected with the live ids, so tombstoned graphs never
// reach verification even when the (removal-surviving) filter still posts
// them.
func (v DatasetView) Candidates(q *graph.Graph, qt QueryType) *bitset.Set {
	w := v.Walk(q)
	defer w.Release()
	return w.Candidates(qt)
}

// VerifyCandidate runs one sub-iso test between the query and dataset
// graph gid, oriented by query type. Tombstoned gids report false.
func (v DatasetView) VerifyCandidate(q *graph.Graph, gid int, qt QueryType) bool {
	g := v.s.dataset.At(gid)
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
// matcher with the query as its pattern; any other query (a supergraph
// query, whose pattern changes with every candidate, or a Method with a
// custom VerifierFunc) tests through VerifyCandidate. A BoundQuery is a
// single-goroutine object; Release it when the stage is done.
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
func (b *BoundQuery) Verify(gid int) bool {
	if b.matcher == nil {
		return b.view.VerifyCandidate(b.q, gid, b.qt)
	}
	g := b.view.s.dataset.At(gid)
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
	// CandidateCount is |C_M| after filtering, and so the number of
	// sub-iso tests the run executed.
	CandidateCount int
}

// Run executes the query with plain filter-then-verify (no cache) over
// one consistent snapshot of the dataset.
func (m *Method) Run(q *graph.Graph, qt QueryType) *Result { return m.View().Run(q, qt) }

// Run executes the query with plain filter-then-verify (no cache) over
// the view.
func (v DatasetView) Run(q *graph.Graph, qt QueryType) *Result {
	cands := v.Candidates(q, qt)
	answers := bitset.New(v.Size())
	cands.ForEach(func(gid int) bool {
		if v.VerifyCandidate(q, gid, qt) {
			answers.Add(gid)
		}
		return true
	})
	return &Result{Answers: answers, CandidateCount: cands.Count()}
}

// NewGGSXMethod is a convenience constructor for the demo deployment's
// Method M: GGSX filtering with VF2 verification. AddGraph patches the
// GGSX trie through a copy-on-write insert that copies only the nodes the
// new graph's paths touch and one chunk of each per-graph array.
func NewGGSXMethod(dataset []*graph.Graph, maxLen int) *Method {
	return NewMethod(fmt.Sprintf("ggsx-L%d/vf2", maxLen), dataset, NewGGSX(dataset, maxLen), nil)
}
