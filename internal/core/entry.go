package core

import (
	"sync/atomic"
	"unsafe"

	"graphcache/internal/bitset"
	"graphcache/internal/ftv"
	"graphcache/internal/graph"
)

// answersCell is the atomic holder of an entry's answer set (and of its
// exact-hit credit cell and recency stamp). It lives behind a pointer in
// Entry so Entry values stay copyable (defensive copies share the cell,
// like they share the immutable Graph).
//
// Publication rules: a published answers value and its set are never
// mutated, but for the value's exact-hit Result, which is set once from
// nil. A reader that brings an entry forward to its view, and a window
// turn that masks an entry's removals, build a fresh value and publish
// it with a compare-and-swap against the one they started from.
// No mutation and no query waits for another: a swap that loses to a
// concurrent one is dropped, and the loser still answers from the set it
// built, which is exact for its own view. A value's length and removal
// count only grow, since nobody publishes over a value other than the
// one it read.
type answersCell struct {
	p atomic.Pointer[answersAt]

	// pendingExact is the exact-hit credit cell: the hits the caller's
	// stripe could not count (the entry's word there held another entry
	// or was saturated) and, at a fold, the stripes' counts drained into
	// it; foldCreditsLocked turns it into one policy event. lastHit is
	// the recency stamp: a hit raises it to the tick when a miss moved
	// the tick since, so the steady-state hit writes neither.
	pendingExact atomic.Int64
	lastHit      atomic.Int64
}

// answersAt is one published answer set and the dataset history it is
// exact for: the answers among the ids below set.Len() with the first
// removals removals (ftv.DatasetView.Removals) applied. Each mutation
// raises a view's Size or its Removals, so a reader whose view has at
// least as many of both masks the removals since and tests the ids from
// set.Len() up (a turn masks removals alone, so set.Len() may trail);
// a reader whose view has fewer of either cannot use the set.
//
// exact is the exact-hit Result for a view the state is current for
// (current): a pure function of the state, built by the first such hit
// and shared, read-only, by every later one, so a steady-state hit
// allocates nothing. A state is replaced, never edited, so a hit on a
// newer state never meets an older state's Result.
type answersAt struct {
	set      *bitset.Set
	removals int
	exact    atomic.Pointer[Result]
}

// at tags set as exact for the view's removals.
func at(set *bitset.Set, view ftv.DatasetView) *answersAt {
	return &answersAt{set: set, removals: view.Removals()}
}

// current reports whether a is exact for the view as it stands: no
// addition to test and no removal to mask.
func (a *answersAt) current(view ftv.DatasetView) bool {
	return a.set.Len() == view.Size() && a.removals == view.Removals()
}

// Entry is one cached query: the pattern graph, its exact answer set and
// the metadata consulted by hit detection and replacement policies.
// Entries are owned by the Cache; policies read them through the slices
// handed to ReplacedContent.
type Entry struct {
	// ID is a cache-unique, monotonically assigned identifier.
	ID int
	// Graph is the query pattern.
	Graph *graph.Graph
	// Type is the query semantics the answers correspond to.
	Type ftv.QueryType

	// ans holds the entry's exact answer set over dataset positions. Read
	// it through Answers.
	ans *answersCell

	// Fingerprint pre-filters exact-match candidates: only an equal one
	// reaches the iso test.
	Fingerprint graph.Fingerprint

	// BaseCandidates is |C_M| when the query was originally executed —
	// the number of sub-iso tests an exact-match hit on this entry saves.
	// It sits with the fields before it, so an exact hit reads one cache
	// line of its entry (an Entry is 192 B, three lines).
	BaseCandidates int

	// FV and row are what the containment screen reads of the entry
	// (ftv.ScreenKey), the hit index's and catch-up's alike: the
	// fixed-size graph.FeatureVector and the pattern's row of Method M's
	// trie, from the query's own filter walk at admission (and a re-walk
	// on state restore). Both are immutable.
	FV  graph.FeatureVector
	row ftv.Row

	// staticBytes is the size of everything but the answer set — graph,
	// signatures, struct overhead — computed once at construction so
	// Bytes() is O(1) and can be re-evaluated cheaply whenever the answer
	// set is swapped. Immutable.
	staticBytes int

	// InsertedAt and LastUsed are miss ticks (LRU/FIFO state): an exact
	// hit claims no tick, so LastUsed is the last miss before the latest
	// hit (doc.go).
	InsertedAt int64
	LastUsed   int64
	// Hits counts how many queries this entry contributed to (POP).
	Hits int64
	// SavedTests accumulates the number of dataset sub-iso tests this
	// entry saved (PIN utility), aged by the window decay factor.
	SavedTests float64
	// SavedCostNs accumulates the estimated cost of those saved tests in
	// nanoseconds (PINC utility), aged likewise.
	SavedCostNs float64
}

// Answers returns the entry's current answer set (see answersAt for the
// dataset history it is exact for), from one load of the entry's answer
// cell. The returned set is immutable; the cache replaces it whole as it
// brings the entry forward.
func (e *Entry) Answers() *bitset.Set { return e.ans.p.Load().set }

// newEntry builds an Entry from q's fingerprint, vector and row — the
// single construction site for cache entries, shared by admission and
// state restores. The ID is assigned when the entry is staged (admit) or
// installed (replaceEntries). The answers are exact for the view.
// Callers hold no lock: this is where an answer set is compacted.
func newEntry(q *graph.Graph, qt ftv.QueryType, set *bitset.Set, view ftv.DatasetView, baseCandidates int, fp graph.Fingerprint, fv graph.FeatureVector, row ftv.Row, tick int64) *Entry {
	e := &Entry{
		Graph:          q,
		Type:           qt,
		ans:            &answersCell{},
		Fingerprint:    fp,
		FV:             fv,
		row:            row,
		BaseCandidates: baseCandidates,
		InsertedAt:     tick,
		LastUsed:       tick,
	}
	e.staticBytes = entryBytes + q.Bytes() + row.Bytes()
	// The set is owned here (every caller passes a fresh or cloned set)
	// and about to be published read-only for the entry's lifetime, so
	// pay the one-off re-encode into its smaller container now: sparse
	// for small answer sets, dense words otherwise.
	set.Compact()
	e.ans.p.Store(at(set, view))
	return e
}

// entryBytes is what an entry allocates besides its graph, its trie row
// and its answer set: the Entry (its vector inline), its answersCell and
// the first answersAt published in it.
const entryBytes = int(unsafe.Sizeof(Entry{}) + unsafe.Sizeof(answersCell{}) + unsafe.Sizeof(answersAt{}))

// Bytes estimates the entry's logical resident size: the immutable
// static part plus the current answer set. O(1). Cache.Bytes sums it
// over the resident list.
func (e *Entry) Bytes() int { return e.staticBytes + e.Answers().Bytes() }

// age decays the adaptive utilities by factor.
func (e *Entry) age(factor float64) {
	e.SavedTests *= factor
	e.SavedCostNs *= factor
}
