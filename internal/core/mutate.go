package core

import (
	"iter"
	"time"

	"graphcache/internal/bitset"
	"graphcache/internal/ftv"
	"graphcache/internal/graph"
)

// Live dataset mutations with exact cache maintenance.
//
// The cache's correctness argument rests on answer sets being exact over
// the dataset; when the dataset itself changes, the cached answer sets are
// materialized views that must be maintained. A mutation stops nothing:
// AddGraph and RemoveGraph are the Method's own copy-on-write mutation
// (one new dataset view per mutation, ftv.Method) plus a counter. They
// take no cache lock, wait for no query and keep no per-mutation record.
// Readers do the maintenance:
//
//   - A query pins one dataset view (its one Method.View load) and runs
//     against it throughout, so its answer is exact for that view.
//
//   - Each entry's answers name the dataset history they are exact for:
//     an id-space length and a removal count (answersAt, entry.go). A
//     reader on a view of that size and removal count uses the set as it
//     is. A reader on a later view brings the entry forward
//     (answersFor): it masks out the graphs tombstoned since, tests the
//     ids appended since and publishes the result. The containment
//     screen hit detection runs (ftv.ScreenKey), of the entry's vector
//     and row against each added graph's vector and forward row, refutes
//     most of those tests, however the graph was added: through this
//     cache, another cache over the Method or the Method itself. A
//     reader on an earlier view, meeting an entry a newer reader has
//     already brought past it, treats the entry as absent: an exact hit
//     falls through to the miss path, a sub/super hit is dropped.
//
//   - Every window turn masks the pending removals of every resident and
//     window entry, with no containment test, and tallies their Bytes()
//     as it goes, so Cache.Bytes is exact at every turn.
//
// Entries needs every entry current: it brings the resident list forward
// before it takes mu (reconcileResident), so its containment tests block
// no miss. The snapshot writer records no answers and tests nothing.
//
// Every answer set returned by Execute is exact for the query's view —
// the SelfCheck oracle and the churn suites assert byte-identical answers
// to the uncached method after every mutation, including mutations made
// through another cache or through the Method itself.
// Snapshot.MutationHoldNs times the mutation calls.

// AddGraph appends g to the live dataset under a fresh stable id and
// returns the id. Every cached answer set takes the new graph in when it
// is next read.
func (c *Cache) AddGraph(g *graph.Graph) (int, error) {
	defer c.mon.endMutation(time.Now())
	gid, err := c.method.AddGraph(g)
	if err != nil {
		return 0, err
	}
	c.mon.datasetAdds.Add(1)
	return gid, nil
}

// RemoveGraph tombstones dataset graph gid. The id is never reused, so
// every other answer-set position stays valid; a cached set drops the
// graph when it is next read or at the next window turn.
func (c *Cache) RemoveGraph(gid int) error {
	defer c.mon.endMutation(time.Now())
	if err := c.method.RemoveGraph(gid); err != nil {
		return err
	}
	c.mon.datasetRemoves.Add(1)
	return nil
}

// maskRemovalsLocked brings e's answers forward to the view's removals
// when any landed since e's set was published: the turn's maintenance,
// no containment test, ids appended since left untested. An entry at or
// past the view's removal count has none to take. It returns e's Bytes()
// over the set it leaves, from its one load of e's cell. Caller holds mu.
func (c *Cache) maskRemovalsLocked(e *Entry, view ftv.DatasetView) int {
	a := e.ans.p.Load()
	set := a.set
	if a.removals < view.Removals() {
		set = withoutRemoved(a.set, view, a.removals)
		e.ans.p.CompareAndSwap(a, at(set, view))
	}
	return e.staticBytes + set.Bytes()
}

// answersFor returns e's answer set exact for the view: one atomic load
// for an entry at the view's size and removals; for one behind the view,
// the set brought forward (removals masked, then additions tested) and
// published; nil for one a newer reader has already brought past the
// view (answersAt). Racing readers of one view compute identical sets,
// so whichever swap lands is right. Cache.Bytes does not see the swap
// until the next turn tallies it. Takes no lock, and loads
// e's answer cell once: every later step works on that one state.
func (c *Cache) answersFor(e *Entry, view ftv.DatasetView) *bitset.Set {
	a := e.ans.p.Load()
	if a.current(view) {
		return a.set
	}
	if a.set.Len() > view.Size() || a.removals > view.Removals() {
		return nil
	}
	set := withoutRemoved(a.set, view, a.removals)
	if set.Len() < view.Size() {
		set = c.patchedAnswers(e, set, view)
	}
	e.ans.p.CompareAndSwap(a, at(set, view))
	return set
}

// liveCount is the number of graphs in e's answers that the view holds
// live: what its answer set will count once masked to the view's removals
// (hit ranking compares entries by it). It loads e's answer cell once, so
// the count and the removals it subtracts describe one state.
func liveCount(e *Entry, view ftv.DatasetView) int {
	a := e.ans.p.Load()
	n := a.set.Count()
	for range removedFrom(a.set, view, a.removals) {
		n--
	}
	return n
}

// reconcileResident brings every entry of the published view forward to
// the dataset view: "reconcile all now", for Entries, which needs every
// entry current. It runs before Entries takes mu, so its containment
// tests block no miss. An entry that a concurrent turn admits after this
// pass is brought forward by Entries' own answersFor call, under mu. Takes no lock, and loads the
// published view once.
func (c *Cache) reconcileResident(view ftv.DatasetView) {
	for _, e := range c.published.Load().all {
		c.answersFor(e, view)
	}
}

// withoutRemoved returns set without the graphs the view removed from
// its from-th removal on: set itself when it holds none of them, else a
// copy re-encoded into its smaller container before it is published
// (a removal can take a set below the sparse break-even).
func withoutRemoved(set *bitset.Set, view ftv.DatasetView, from int) *bitset.Set {
	out := set
	for gid := range removedFrom(set, view, from) {
		if out == set {
			out = set.Clone()
		}
		out.Remove(gid)
	}
	if out != set {
		out.Compact()
	}
	return out
}

// removedFrom yields the graphs in set that the view removed from its
// from-th removal on.
func removedFrom(set *bitset.Set, view ftv.DatasetView, from int) iter.Seq[int] {
	return func(yield func(int) bool) {
		for i := from; i < view.Removals(); i++ {
			if gid := view.Removed(i); gid < set.Len() && set.Contains(gid) && !yield(gid) {
				return
			}
		}
	}
}

// patchedAnswers computes e's answer set over the view's id space from
// old, a set exact over a shorter one: grown, with each graph added since
// verified for containment. Every addition appends one id, so those are
// the ids from old.Len() up. Tombstoned additions are skipped — their
// bits were never set in old and must stay clear. An addition is tested
// only if the containment screen passes, in ftv.ScreenKey's order: e's
// key, built once for the call, against the added graph's, built from
// its memoized vector (graph.Graph.Features, computed once however many
// entries catch up over it) and its forward row; then the degree tails;
// then the row pass. e's row is decoded once for the call, at its first
// row pass.
func (c *Cache) patchedAnswers(e *Entry, old *bitset.Set, view ftv.DatasetView) *bitset.Set {
	from := old.Len()
	set := old.Grown(view.Size())
	ek := ftv.NewScreenKey(e.FV, e.row)
	d := e.row.Decode()
	defer d.Release()
	for gid := from; gid < view.Size(); gid++ {
		g := view.Graph(gid)
		if g == nil {
			continue // added then removed before this entry caught up
		}
		fv, row := g.Features(), view.Row(gid)
		gk := ftv.NewScreenKey(fv, row)
		var ok bool
		if e.Type == ftv.Supergraph {
			ok = ek.Holds(&gk) && fv.TailIn(&e.FV) && d.Holds(row)
		} else {
			ok = ek.In(&gk) && e.FV.TailIn(&fv) && d.In(row)
		}
		if !ok {
			continue
		}
		c.mon.maintenanceTests.Add(1)
		if view.VerifyCandidate(e.Graph, gid, e.Type) {
			set.Add(gid)
		}
	}
	return set
}

// DatasetInfo is a snapshot of the live dataset's shape.
type DatasetInfo struct {
	// Size is the id space: positions including tombstones.
	Size int
	// Live is the number of queryable (non-tombstoned) graphs.
	Live int
	// Epoch counts mutations: 0 at construction, +1 per add or remove.
	Epoch int64
}

// DatasetInfo reports the current dataset shape.
func (c *Cache) DatasetInfo() DatasetInfo {
	v := c.method.View()
	return DatasetInfo{Size: v.Size(), Live: v.LiveCount(), Epoch: v.Epoch()}
}
