package core

import (
	"graphcache/internal/ftv"
)

// The cache-entry feature index: per-shard, copy-on-write arrays of
// per-entry containment summaries published through atomic pointers
// (shard.summaries). Hit detection reads them entirely lock-free — no
// shard locks, no snapshot allocation, no per-query sort — and uses the
// summaries (ftv.FeatureVector plus a path-feature bloom) to discard
// entries that cannot possibly be sub- or super-hit candidates before the
// path-feature dominance merge runs. That merge is the last filter before
// the q↔h iso tests, and it subsumes label-multiset dominance: every
// vertex's label is a length-0 path feature, counted once per vertex.
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
// use (its graph, answer set and summary are immutable). Scan order is
// shard-major rather than global ID order, which changes NOTHING
// downstream: every consumer is a function of the candidate SET — benefit
// ranking orders candidates by (answer count, entry ID) — so detection is
// deterministic and identical at every shard count. For a sequential
// stream the union always exactly mirrors the admitted entries: admitted
// sets change only inside policyMu, and every mutation republishes before
// its locks drop.
type indexEntry struct {
	typ ftv.QueryType
	summary
	e *Entry
}

// republishAllLocked replaces every shard's published summary slice with
// a fresh copy of its admitted entries. Caller holds policyMu and every
// shard write lock.
//
//gclint:requires policyMu shard
func (c *Cache) republishAllLocked() {
	for _, sh := range c.shards {
		s := make([]indexEntry, len(sh.entries))
		for i, e := range sh.entries {
			s[i] = indexEntry{typ: e.Type, summary: e.summary(), e: e}
		}
		sh.summaries.Store(&s)
	}
}

// scanIndex collects sub/super hit candidates from the published
// per-shard summaries, screened by summary.embedsIn in each direction.
// Its cheap stage (size, label bloom, label-degree bloom, degree tail,
// path-feature bloom) refutes most entries before the path-feature
// dominance merge runs; entries refuted in both directions without a
// merge are counted as index-pruned.
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
			// Sub case q ⊑ h.
			ok, merged := sig.embedsIn(&ie.summary)
			if merged {
				fullChecks++
			}
			if ok {
				sub = append(sub, ie.e)
				continue
			}
			pruned := !merged
			// Super case h ⊑ q.
			if ok, merged := ie.embedsIn(&sig.summary); merged {
				pruned = false
				fullChecks++
				if ok {
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
