package core

import (
	"sort"

	"graphcache/internal/ftv"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

// querySig bundles the per-query signatures computed once and reused by
// exact-match detection and sub/super candidate pre-filtering.
type querySig struct {
	fp       graph.Fingerprint
	labelVec graph.LabelVector
	features featureVec
	fv       ftv.FeatureVector
	featBits uint64
}

// signatureOf computes the full query signature. The WL fingerprint is
// memoized on the graph, so Execute's two-stage flow — fingerprint alone
// for the exact-match probe, the full signature only after an exact miss
// — never recomputes it here.
func (c *Cache) signatureOf(q *graph.Graph) querySig {
	features := pathFeatures(q, c.cfg.FeatureLen)
	return querySig{
		fp:       q.WLFingerprint(3),
		labelVec: graph.LabelVectorOf(q),
		features: features,
		fv:       ftv.ExtractFeatures(q),
		featBits: features.bits(),
	}
}

// findExact returns a cached (or window-pending) entry isomorphic to q
// with the same query type, or nil. Fingerprint equality pre-filters;
// VF2 confirms (fingerprints can collide, never the reverse).
//
// The owning shard is probed first (isomorphic graphs share a fingerprint,
// so an admitted match can live nowhere else), under its read lock and
// only long enough to copy the colliding candidates into a stack buffer;
// the confirming iso tests run lock-free over immutable entry fields. Only
// when that finds nothing are the window's fingerprint matches copied out
// under windowMu — the two locks are never nested, and a hit on an
// admitted entry never touches windowMu. Two identical queries racing each
// other may both miss and both be staged — benign: exact-match scans
// return the first isomorphic entry either way.
//
//gclint:acquires windowMu shard
func (c *Cache) findExact(q *graph.Graph, qt ftv.QueryType, fp graph.Fingerprint) *Entry {
	var buf [8]*Entry // fingerprint collisions are rare: no heap on the probe
	sh := c.shardFor(fp)
	sh.mu.RLock()
	cands := append(buf[:0], sh.byFP[fp]...)
	sh.mu.RUnlock()
	if e := firstIsomorphic(q, qt, cands); e != nil {
		return e
	}
	cands = cands[:0]
	c.windowMu.Lock()
	for _, e := range c.window {
		if e.Fingerprint == fp {
			cands = append(cands, e)
		}
	}
	c.windowMu.Unlock()
	return firstIsomorphic(q, qt, cands)
}

// firstIsomorphic returns the first of cands with q's type that is
// isomorphic to q, or nil. Isomorphism is symmetric, so the cached
// pattern is matched into q and not q into it: the matcher searches along
// its first argument's memoized plan, which an entry that has been hit
// before already carries and a q fresh off the wire would have to build.
//
//gclint:nolocks
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
// query's type. Candidates come from one of two sound collectors —
// Config.IndexOff selects which — then are ranked by expected benefit and
// confirmed with budgeted VF2 runs: per direction at most 2× the hit
// budget of attempts and at most the budget of accepted hits.
//
// With the feature index on (the default), candidates are fetched from
// the lock-free published index: only entries whose containment summaries
// are compatible with the query's reach the exact dominance merges, and
// no shard lock, snapshot allocation or sort happens at all (see
// hitIndex). With IndexOff, detection scans an ID-ordered snapshot of the
// shards with the pre-index predicate — the measurable baseline.
//
// Either way the iso tests run without holding any lock: the consulted
// fields are immutable after admission, and a concurrently evicted entry
// still yields sound savings (its answer set remains exact over the
// immutable dataset). Candidate enumeration is ID-ordered and the benefit
// ranking breaks ties by ID, so detection is deterministic and
// independent of the shard count. The index may prune candidates the
// baseline would have spent (failing) VF2 attempts on, so the two modes
// can surface different hit sets within the attempt budget — answers stay
// exact either way, since hits only ever shrink verification work.
//
//gclint:acquires shard
func (c *Cache) detectHits(q *graph.Graph, qt ftv.QueryType, sig querySig) hitSet {
	var hs hitSet
	if c.cfg.MaxSubHits == 0 && c.cfg.MaxSuperHits == 0 {
		return hs
	}
	var subCand, superCand []*Entry
	if c.cfg.IndexOff {
		subCand, superCand = c.scanSnapshot(qt, sig)
	} else {
		subCand, superCand = c.scanIndex(qt, sig)
	}

	// Benefit ranking. Which direction delivers answers vs pruning depends
	// on the query type, but the proxy is the same either way: for
	// answer-delivering hits, larger answer sets save more tests; for
	// pruning hits, smaller answer sets exclude more candidates. Ties are
	// broken by entry ID: the order is then a function of the candidate
	// SET alone, which keeps detection deterministic even when the index
	// prunes elements out of the baseline's list.
	answersDeliverIsSub := qt == ftv.Subgraph
	rankCandidates(subCand, answersDeliverIsSub)
	rankCandidates(superCand, !answersDeliverIsSub)

	hs.sub, hs.super, hs.isoTests = c.confirmHits(q, subCand, superCand)
	return hs
}

// rankedCandidate pairs a hit candidate with its answer count sampled
// once, before the sort starts.
type rankedCandidate struct {
	e     *Entry
	count int
}

// rankCandidates orders a hit-candidate list in place by expected
// benefit — answer count, largerFirst choosing the direction — with
// entry-ID tie-breaks. Each entry's answer count is snapshotted exactly
// once before sorting: a comparator that reloads the answer cell per
// comparison can observe a concurrent lazy reconciliation mid-sort,
// making the ordering inconsistent (sort.Slice's result is then
// unspecified) and breaking the "ranking is a deterministic function of
// the candidate set" contract — besides costing one O(set) count per
// comparison instead of per entry.
//
//gclint:deterministic
//gclint:loads answers cands
func rankCandidates(cands []*Entry, largerFirst bool) {
	if len(cands) < 2 {
		return
	}
	rs := make([]rankedCandidate, len(cands))
	for i, e := range cands {
		rs[i] = rankedCandidate{e: e, count: e.Answers().Count()}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].count != rs[j].count {
			if largerFirst {
				return rs[i].count > rs[j].count
			}
			return rs[i].count < rs[j].count
		}
		return rs[i].e.ID < rs[j].e.ID
	})
	for i, r := range rs {
		cands[i] = r.e
	}
}

// scanSnapshot is the IndexOff candidate collector: an ID-ordered
// point-in-time snapshot of every shard, pre-filtered by size and by
// label-vector and path-feature dominance — the pre-index engine, kept as
// the measurable baseline for the indexed-vs-unindexed comparison.
//
//gclint:acquires shard
func (c *Cache) scanSnapshot(qt ftv.QueryType, sig querySig) (sub, super []*Entry) {
	all := c.entriesSnapshot()
	fullChecks := 0
	for _, e := range all {
		if e.Type != qt {
			continue
		}
		// Sub case q ⊑ h requires q to "fit inside" h.
		if int(sig.fv.Vertices) <= e.Graph.N() && int(sig.fv.Edges) <= e.Graph.M() {
			fullChecks++
			if sig.labelVec.DominatedBy(e.LabelVec) && sig.features.dominatedBy(e.Features) {
				sub = append(sub, e)
				continue
			}
		}
		// Super case h ⊑ q requires h to fit inside q.
		if e.Graph.N() <= int(sig.fv.Vertices) && e.Graph.M() <= int(sig.fv.Edges) {
			fullChecks++
			if e.LabelVec.DominatedBy(sig.labelVec) && e.Features.dominatedBy(sig.features) {
				super = append(super, e)
			}
		}
	}
	c.mon.hitScanEntries.Add(int64(len(all)))
	c.mon.hitFullChecks.Add(int64(fullChecks))
	return sub, super
}

// confirmHits runs the budgeted VF2 confirmations over the ranked
// candidate lists, returning the accepted hits and the number of q↔h iso
// tests spent.
//
//gclint:nolocks
func (c *Cache) confirmHits(q *graph.Graph, subCand, superCand []*Entry) (sub, super []*Entry, isoTests int) {
	opts := iso.Options{MaxRecursions: c.cfg.HitIsoBudget}
	attempts := 0
	for _, e := range subCand {
		if len(sub) >= c.cfg.MaxSubHits || attempts >= 2*c.cfg.MaxSubHits {
			break
		}
		attempts++
		isoTests++
		if ok, _ := iso.VF2(q, e.Graph, opts); ok {
			sub = append(sub, e)
		}
	}
	attempts = 0
	for _, e := range superCand {
		if len(super) >= c.cfg.MaxSuperHits || attempts >= 2*c.cfg.MaxSuperHits {
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
