package core

import (
	"graphcache/internal/ftv"
)

// The cache-entry feature index: per-shard, copy-on-write arrays of
// per-entry containment summaries published through atomic pointers
// (shard.summaries). Hit detection reads them entirely lock-free — no
// shard locks, no snapshot allocation, no per-query sort — and uses the
// summaries (ftv.FeatureVector plus a path-feature bloom) to discard
// entries that cannot possibly be sub- or super-hit candidates before any
// label-vector or path-feature dominance merge runs.
//
// # Publication rules
//
// Writers never mutate a published slice. Every shard's slice is replaced
// whole by republishAllLocked — under policyMu plus every shard write
// lock — whenever the admitted set changes: a window turn or a state
// restore. The global index a reader sees is the union of the per-shard
// slices.
//
// Readers load each shard's pointer once per query and work on those
// point-in-time arrays; an entry evicted after the load stays sound to
// use (its graph, answer set and summary are immutable), exactly like the
// shard-snapshot path. Scan order is shard-major rather than global ID
// order, which changes NOTHING downstream: every consumer is a function
// of the candidate SET — benefit ranking orders candidates by (answer
// count, entry ID) — so detection is deterministic and identical at every
// shard count. For a sequential stream the union always exactly mirrors
// the admitted entries: admitted sets change only inside policyMu, and
// every mutation republishes before its locks drop.
type indexEntry struct {
	typ      ftv.QueryType
	featBits uint64
	fv       ftv.FeatureVector
	e        *Entry
}

// republishAllLocked replaces every shard's published summary slice with
// a fresh copy of its admitted entries. Caller holds policyMu and every
// shard write lock. With Config.IndexOff nothing is built — the escape
// hatch runs pure snapshot scans.
//
//gclint:requires policyMu shard
func (c *Cache) republishAllLocked() {
	if c.cfg.IndexOff {
		return
	}
	for _, sh := range c.shards {
		s := make([]indexEntry, len(sh.entries))
		for i, e := range sh.entries {
			s[i] = indexEntry{typ: e.Type, featBits: e.FeatureBits, fv: e.FV, e: e}
		}
		sh.summaries.Store(&s)
	}
}

// scanIndex collects sub/super hit candidates from the published
// per-shard summaries. The summary checks (size, label bloom,
// label-degree bloom, degree tail, path-feature bloom) are necessary
// conditions for the corresponding containment, so a summary rejection
// safely skips the exact dominance merges; entries rejected in both
// directions without a merge are counted as index-pruned.
//
//gclint:nolocks
//gclint:loads summaries
func (c *Cache) scanIndex(qt ftv.QueryType, sig querySig) (sub, super []*Entry) {
	// The scan counts in locals and publishes once: per-entry atomic adds
	// would be hundreds of RMWs on one shared line per query.
	scanned, fullChecks, indexPruned := 0, 0, 0
	// Iterate the published per-shard slices directly: the hot path then
	// allocates no per-query parts slice.
	for _, sh := range c.shards {
		p := sh.summaries.Load()
		if p == nil || len(*p) == 0 {
			continue
		}
		entries := *p
		scanned += len(entries)
		for i := range entries {
			ie := &entries[i]
			if ie.typ != qt {
				continue
			}
			pruned := true
			// Sub case q ⊑ h: q's summary must be contained in h's.
			if sig.fv.ContainedIn(ie.fv) && sig.featBits&^ie.featBits == 0 {
				pruned = false
				fullChecks++
				if sig.labelVec.DominatedBy(ie.e.LabelVec) && sig.features.dominatedBy(ie.e.Features) {
					sub = append(sub, ie.e)
					continue
				}
			}
			// Super case h ⊑ q: h's summary must be contained in q's.
			if ie.fv.ContainedIn(sig.fv) && ie.featBits&^sig.featBits == 0 {
				pruned = false
				fullChecks++
				if ie.e.LabelVec.DominatedBy(sig.labelVec) && ie.e.Features.dominatedBy(sig.features) {
					super = append(super, ie.e)
				}
			}
			if pruned {
				indexPruned++
			}
		}
	}
	c.mon.hitScanEntries.Add(int64(scanned))
	c.mon.hitFullChecks.Add(int64(fullChecks))
	c.mon.hitIndexPruned.Add(int64(indexPruned))
	return sub, super
}
