package core

import (
	"math"
	"sync/atomic"
	"time"

	"graphcache/internal/bitset"
	"graphcache/internal/ftv"
	"graphcache/internal/graph"
)

// Live dataset mutations with exact cache maintenance.
//
// The cache's correctness argument rests on answer sets being exact over
// the dataset; when the dataset itself changes, the cached answer sets are
// materialized views that must be maintained. The rules:
//
//   - Queries and mutations serialize through dsMu: every query holds the
//     read side for its whole run (one dataset snapshot per query, shared
//     freely between queries); AddGraph/RemoveGraph hold the write side,
//     so mutations see a quiescent cache and queries never see a
//     half-maintained one.
//
//   - REMOVALS are always stop-the-world and cheap: under dsMu's write
//     side and mu the tombstoned gid's bit is cleared from every admitted
//     and window entry's answer set (a clone-and-clear pointer swap per
//     affected entry — no iso tests), and the method masks the gid out of
//     every future candidate set. Ids are never reused.
//
//   - ADDITIONS must decide, per cached entry, whether the new graph
//     belongs in its answer set — one containment test per entry. The
//     tests are deferred: every addition appends one id, so an entry's
//     set is exact over the ids below its length, and a read of an entry
//     whose set is shorter than the id space verifies exactly the ids
//     above it before its answers are trusted (reconciledAnswers): a
//     screen of the entry's summary against each added graph's (computed
//     once per add) refutes most, and only the rest pay a containment
//     test. A hit pays for the entries it touches; Entries and the
//     snapshot writers, which need every entry current, reconcile the
//     resident list first (reconcileResident). None of it runs under mu,
//     except for an entry a concurrent turn admits between that pass and
//     the reader's mu.
//
// Every individual answer set returned by Execute is exact for the
// query's dataset snapshot — the SelfCheck oracle and the churn
// equivalence suite assert byte-identical answers to the uncached method
// after every mutation.
//
// What a mutation costs: it stops the world (the drain of dsMu's write
// side, then mu), so the work under the locks is kept proportional to
// what changed, never to what is cached. An add is a charge true-up per
// entry, and no containment test; a remove clones only the entries that
// contained the gid. Snapshot.MutationWaitNs and MutationHoldNs time the
// drain and the hold (Monitor.endMutation).

// AddGraph appends g to the live dataset under a fresh stable id and
// maintains the cached state exactly: the verification-cost EMA array and
// all future per-query bitsets grow with the dataset, and every cached
// answer set reconciles the new graph when it is next read. It returns
// the new graph's id. The method's filter must support AddGraph (an
// ftv.InsertableFilter, as every bundled filter is).
//
//gclint:acquires dsMu mu
func (c *Cache) AddGraph(g *graph.Graph) (int, error) {
	start := time.Now()
	c.dsMu.Lock()
	defer c.dsMu.Unlock()
	defer c.mon.endMutation(start, time.Now())
	gid, err := c.method.AddGraph(g)
	if err != nil {
		return 0, err
	}
	c.growCostCells(c.method.View().Size())
	c.mon.datasetAdds.Add(1)
	c.addSums[gid] = summarize(g)
	// Nothing to reconcile now, but the stop-the-world pass (with a nil
	// fn) still trues up the charges and drops the summaries every entry
	// has already passed — an O(entries) scan, no iso tests — so they stay
	// bounded by the staleness of the coldest entry, not by the add count.
	c.withAllEntriesLocked(nil)
	return gid, nil
}

// RemoveGraph tombstones dataset graph gid and clears its bit from every
// admitted and window entry's answer set — the stop-the-world maintenance
// path (no iso tests; a pointer swap per affected entry). The id is never
// reused, so all other answer-set positions stay valid as-is.
//
//gclint:acquires dsMu mu
func (c *Cache) RemoveGraph(gid int) error {
	start := time.Now()
	c.dsMu.Lock()
	defer c.dsMu.Unlock()
	defer c.mon.endMutation(start, time.Now())
	if err := c.method.RemoveGraph(gid); err != nil {
		return err
	}
	c.mon.datasetRemoves.Add(1)
	c.withAllEntriesLocked(func(e *Entry) {
		set := e.Answers()
		if gid < set.Len() && set.Contains(gid) {
			s := set.Clone()
			s.Remove(gid)
			// The clone is owned until published: re-encode it into its
			// smallest container (removals are where near-full sets shed
			// dense words for run spans) before it becomes immutable.
			s.Compact()
			e.setAnswers(s)
		}
	})
	return nil
}

// growCostCells extends the per-graph cost-EMA array to n cells; caller
// holds dsMu exclusively. Cells must not move while shared (every reader
// and CAS writer of costVal runs under the read side of dsMu), and must be
// copied value by value when they do move, so the backing array doubles:
// an add reslices, and only one add in O(log n) allocates and copies.
// Cells past len are zero, which reads as "no estimate yet".
func (c *Cache) growCostCells(n int) {
	if n <= cap(c.costVal) {
		c.costVal = c.costVal[:n]
		return
	}
	grown := make([]atomic.Uint64, n, 2*n)
	for i := range c.costVal {
		grown[i].Store(c.costVal[i].Load())
	}
	c.costVal = grown
}

// withAllEntriesLocked runs fn (when non-nil) over every admitted and
// every window-pending entry, and trues up each admitted entry's charge:
// fn may have published a fresh set, and so may reconciliation since the
// last pass (window entries are charged at admission). It takes mu;
// caller holds dsMu exclusively. Before mu drops it prunes the
// added-graph summaries to what a reconciler can still read.
//
//gclint:acquires mu
func (c *Cache) withAllEntriesLocked(fn func(e *Entry)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if fn != nil {
			fn(e)
		}
		c.rechargeLocked(e)
	}
	if fn != nil {
		for _, e := range c.window {
			fn(e)
		}
	}
	c.pruneAddSums()
}

// pruneAddSums drops the summaries no reconciler can read again: of
// graphs since removed, and of graphs below every entry's answer-set
// length. A reconciler tests only the ids at or above its set's length,
// every entry is admitted or in the window (no query is in flight), and
// an entry admitted later is sized to the id space it ran over. Caller
// holds dsMu exclusively and mu.
//
//gclint:requires mu
func (c *Cache) pruneAddSums() {
	if len(c.addSums) == 0 {
		return
	}
	floor := math.MaxInt
	for _, list := range [][]*Entry{c.entries, c.window} {
		for _, e := range list {
			floor = min(floor, e.Answers().Len())
		}
	}
	view := c.method.View()
	for gid := range c.addSums {
		if gid < floor || view.Graph(gid) == nil {
			delete(c.addSums, gid)
		}
	}
}

// rechargeLocked trues up the residency charge of an admitted entry whose
// answer set may have been swapped since the last pass (reconciliation
// publishes fresh sets outside mu, where the account is not touched): the
// account moves by the difference between the entry's Bytes() and its
// charge. Caller holds mu.
//
//gclint:requires mu
func (c *Cache) rechargeLocked(e *Entry) {
	if b := e.Bytes(); b != e.charged {
		c.res.bytes.Add(int64(b - e.charged))
		e.charged = b
	}
}

// reconciledAnswers returns e's answer set brought to the view's id
// space, verifying only the graphs added since the set was sized; for a
// current entry it is a single atomic load. It runs lock-free under the
// read side of dsMu: racing reconcilers of the same entry compute
// identical sets, so the last published one wins benignly. The byte account is
// deliberately NOT touched here (mu is not held); it is trued up at the
// next window turn and at every stop-the-world maintenance pass
// (rechargeLocked).
//
//gclint:requires dsMu
//gclint:nolocks
//gclint:loads answers e
func (c *Cache) reconciledAnswers(e *Entry, view ftv.DatasetView) *bitset.Set {
	set := e.Answers()
	if set.Len() == view.Size() {
		return set // removals are applied at mutation time: nothing to do
	}
	set = c.patchedAnswers(e, set, view)
	e.setAnswers(set)
	return set
}

// reconcileResident brings every entry of the published view to the
// view's id space: "reconcile all now", for the readers that need every
// entry current (Entries, WriteState, WriteStateV2). They call it before
// they take mu, so its containment tests block no miss. An entry that a
// concurrent turn admits after this pass still reconciles in the
// reader's own reconciledAnswers call, under mu.
//
//gclint:requires dsMu
//gclint:nolocks
//gclint:loads summaries
func (c *Cache) reconcileResident(view ftv.DatasetView) {
	index := c.published.Load().index
	for i := range index {
		c.reconciledAnswers(index[i].e, view)
	}
}

// patchedAnswers computes e's answer set over the view's id space from
// old, a set exact over a shorter one: grown, with each graph added since
// verified for containment. Every addition appends one id, so those are
// the ids from old.Len() up. Tombstoned additions are skipped — their
// bits were never set in old and must stay clear. An addition whose
// summary the cache holds is tested only if the entry's summary admits
// the containment; one added to the Method behind the cache's back (by
// another cache over it, say) has none and is always tested. Removal bits
// need no handling: removals clear them from every entry at mutation
// time.
func (c *Cache) patchedAnswers(e *Entry, old *bitset.Set, view ftv.DatasetView) *bitset.Set {
	from := old.Len()
	set := old.Grown(view.Size())
	es := e.summary()
	for gid := from; gid < view.Size(); gid++ {
		if view.Graph(gid) == nil {
			continue // added then removed before this entry caught up
		}
		if gs, ok := c.addSums[gid]; ok {
			pattern, target := &es, &gs
			if e.Type == ftv.Supergraph {
				pattern, target = target, pattern
			}
			if may, _ := pattern.embedsIn(target); !may {
				continue
			}
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
//
//gclint:pins dataset
func (c *Cache) DatasetInfo() DatasetInfo {
	v := c.method.View()
	return DatasetInfo{Size: v.Size(), Live: v.LiveCount(), Epoch: v.Epoch()}
}
