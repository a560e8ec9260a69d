package core

import (
	"cmp"
	"slices"

	"graphcache/internal/ftv"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

// findExact returns a cached (or window-pending) entry isomorphic to q
// with the same query type, or nil. Fingerprint equality pre-filters;
// VF2 confirms (fingerprints can collide, never the reverse).
//
// The admitted entries are probed first, with no lock: one load of the
// published view, then its fingerprint chain in ascending ID order, the
// confirming iso tests running over immutable entry fields. Only when that
// finds nothing are the window's fingerprint matches copied out under mu,
// so a hit on an admitted entry never touches a lock. Two identical
// queries racing each other, or a probe racing the turn that admits its
// match, may miss and stage a duplicate — benign: exact-match scans
// return the first isomorphic entry either way.
func (c *Cache) findExact(q *graph.Graph, qt ftv.QueryType, fp graph.Fingerprint) *Entry {
	r := c.published.Load()
	for i, ok := r.byFP[fp]; ok && i >= 0; i = r.next[i] {
		if e := r.all[i]; e.Type == qt && iso.Isomorphic(e.Graph, q) {
			return e
		}
	}
	var buf [8]*Entry // fingerprint collisions are rare: no heap on the probe
	cands := buf[:0]
	c.mu.Lock()
	for _, e := range c.window {
		if e.Fingerprint == fp {
			cands = append(cands, e)
		}
	}
	c.mu.Unlock()
	return firstIsomorphic(q, qt, cands)
}

// firstIsomorphic returns the first of cands with q's type that is
// isomorphic to q, or nil. Isomorphism is symmetric, so the cached
// pattern is matched into q and not q into it: the matcher searches along
// its first argument's memoized plan, which an entry that has been hit
// before already carries and a q fresh off the wire would have to build.
// Takes no lock.
func firstIsomorphic(q *graph.Graph, qt ftv.QueryType, cands []*Entry) *Entry {
	for _, e := range cands {
		if e.Type == qt && iso.Isomorphic(e.Graph, q) {
			return e
		}
	}
	return nil
}

// hitSet is the outcome of sub/super hit detection.
type hitSet struct {
	// sub holds entries h with q ⊑ h (the paper's "sub case").
	sub []*Entry
	// super holds entries h with h ⊑ q (the "super case").
	super []*Entry
	// isoTests counts q↔h containment tests spent.
	isoTests int
}

// detectHits finds the sub/super hits among the admitted entries of the
// query's type, q's vector being fv and its walk's row d. Candidates
// come from the lock-free published index: an entry is read only when
// its screening key passes, and reaches the row pass against the query's
// walk only when its degree tail passes too; no lock, snapshot
// allocation or sort happens at all (see index.go). They are then ranked by expected
// benefit and confirmed with budgeted VF2 runs: per direction at most 2×
// the hit cap of attempts and at most the cap of accepted hits. The cap
// is largeQueryHitCap when Method M left the query cmCount ≥
// largeQueryCandidates candidates, else smallQueryHitCap. The candidate
// lists and the accepted hits live in sc's buffers.
//
// The iso tests run without holding any lock: the consulted fields are
// immutable after admission, and a concurrently evicted entry still
// yields sound savings (its answer set remains exact over the immutable
// dataset). The benefit ranking breaks ties by ID, so detection is
// deterministic. Takes no lock.
func (c *Cache) detectHits(view ftv.DatasetView, q *graph.Graph, qt ftv.QueryType, fv graph.FeatureVector, d *ftv.Decoded, cmCount int, sc *execScratch) hitSet {
	var hs hitSet
	maxHits := largeQueryHitCap
	if cmCount < largeQueryCandidates {
		maxHits = smallQueryHitCap
	}
	sc.sub, sc.super = c.scanIndex(qt, fv, d, sc.sub[:0], sc.super[:0])

	// Benefit ranking. Which direction delivers answers vs pruning depends
	// on the query type, but the proxy is the same either way: for
	// answer-delivering hits, larger answer sets save more tests; for
	// pruning hits, smaller answer sets exclude more candidates. Ties are
	// broken by entry ID: the order is then a function of the candidate
	// SET alone.
	answersDeliverIsSub := qt == ftv.Subgraph
	sc.ranked = rankCandidates(view, sc.sub, answersDeliverIsSub, sc.ranked)
	sc.ranked = rankCandidates(view, sc.super, !answersDeliverIsSub, sc.ranked)

	hs.sub, hs.super, hs.isoTests = confirmHits(q, sc.sub, sc.super, maxHits)
	return hs
}

// rankedCandidate pairs a hit candidate with its live answer count
// (liveCount) sampled once, before the sort starts.
type rankedCandidate struct {
	e     *Entry
	count int
}

// rankCandidates orders a hit-candidate list in place by expected
// benefit — the answers the view holds live, largerFirst choosing the
// direction — with entry-ID tie-breaks. Each entry's count is snapshotted
// exactly once before sorting: a comparator that reloads the answer cell
// per comparison can observe a concurrent reader's swap mid-sort,
// making the ordering inconsistent and breaking the "ranking is a
// deterministic function of the candidate set" contract — besides
// costing one O(set) count per comparison instead of per entry. The
// counts are staged in buf, which is returned (grown if it had to be,
// cleared of entry pointers) for the next call.
func rankCandidates(view ftv.DatasetView, cands []*Entry, largerFirst bool, buf []rankedCandidate) []rankedCandidate {
	if len(cands) < 2 {
		return buf
	}
	rs := buf[:0]
	for _, e := range cands {
		rs = append(rs, rankedCandidate{e: e, count: liveCount(e, view)})
	}
	slices.SortFunc(rs, func(a, b rankedCandidate) int {
		if a.count != b.count {
			if largerFirst {
				return cmp.Compare(b.count, a.count)
			}
			return cmp.Compare(a.count, b.count)
		}
		return cmp.Compare(a.e.ID, b.e.ID)
	})
	for i, r := range rs {
		cands[i] = r.e
	}
	clear(rs)
	return rs[:0]
}

// confirmHits runs the budgeted VF2 confirmations over the ranked
// candidate lists, at most maxHits hits per direction, returning
// the accepted hits and the number of q↔h iso tests spent. Each accepted
// list is a prefix of its candidate list, compacted in place. q is bound
// once for its "q ⊑ h" probes, as the verification stage binds it for its
// candidates. Takes no lock.
func confirmHits(q *graph.Graph, subCand, superCand []*Entry, maxHits int) (sub, super []*Entry, isoTests int) {
	opts := iso.Options{MaxRecursions: hitIsoBudget}
	sub, super = subCand[:0], superCand[:0]
	attempts := 0
	if len(subCand) > 0 {
		m := iso.Bind(q, opts)
		for _, e := range subCand {
			if len(sub) >= maxHits || attempts >= 2*maxHits {
				break
			}
			attempts++
			isoTests++
			if ok, _ := m.Match(e.Graph); ok {
				sub = append(sub, e)
			}
		}
		m.Release()
	}
	attempts = 0
	for _, e := range superCand {
		if len(super) >= maxHits || attempts >= 2*maxHits {
			break
		}
		attempts++
		isoTests++
		if ok, _ := iso.VF2(e.Graph, q, opts); ok {
			super = append(super, e)
		}
	}
	return sub, super, isoTests
}
