package core

import (
	"graphcache/internal/ftv"
	"graphcache/internal/graph"
)

// The published resident view: an immutable, ID-ordered array of
// per-entry containment summaries (the cache-entry feature index) plus a
// fingerprint table over it, stored in one atomic pointer
// (Cache.published). The exact probe and hit detection read it entirely
// lock-free — no lock, no snapshot allocation, no per-query sort. The
// probe walks one fingerprint chain; detection screens each summary
// (ftv.FeatureVector plus the pattern's row of Method M's trie) against
// the query's own filter walk, kept open through the scan: the vectors
// and the row bloom discard most entries, and one pass over an entry's
// packed row against the query's decoded walk decides the rest. That
// pass is the last filter before the q↔h iso tests. A row compares only
// the nodes below the other side's watermark (ftv.Row), so an entry
// walked on an older trie still screens a query walked on a newer one.
//
// # Publication rules
//
// Writers never mutate a published view. It is replaced whole by
// republishLocked — under mu — whenever the resident list changes: a
// window turn or a state restore. Readers load the pointer once per probe
// or scan and work on that point-in-time view; an entry evicted after the
// load stays sound to use (its graph, answer set and summary are
// immutable). For a sequential stream the view always exactly mirrors the
// resident list: it changes only inside mu, and every change republishes
// before the lock drops.
type resident struct {
	index []indexEntry
	// byFP maps a fingerprint to the position in index of its lowest-ID
	// entry; indexEntry.next chains the rest.
	byFP map[graph.Fingerprint]int32
}

// indexEntry is one admitted entry in the published view.
type indexEntry struct {
	typ ftv.QueryType
	summary
	e *Entry
	// next is the position of the next entry with the same fingerprint,
	// in ascending ID order; -1 ends the chain.
	next int32
}

// republishLocked publishes a fresh view of the resident list, built in
// one pass: walking it backwards leaves each fingerprint mapped to its
// lowest-ID position with the chain ascending from there.
func (c *Cache) republishLocked() {
	r := &resident{
		index: make([]indexEntry, len(c.entries)),
		byFP:  make(map[graph.Fingerprint]int32, len(c.entries)),
	}
	for i := len(c.entries) - 1; i >= 0; i-- {
		e := c.entries[i]
		next, ok := r.byFP[e.Fingerprint]
		if !ok {
			next = -1
		}
		r.index[i] = indexEntry{typ: e.Type, summary: e.summary(), e: e, next: next}
		r.byFP[e.Fingerprint] = int32(i)
	}
	c.published.Store(r)
}

// scanIndex collects sub/super hit candidates from the published
// summaries, screened against the query's probe in each direction (q ⊑ h
// by probe.in, h ⊑ q by probe.holds). Their cheap stage (size, label
// bloom, label-degree bloom, degree tail, row bloom) refutes most entries
// before the row pass runs; entries refuted in both directions without a
// row pass are counted as index-pruned. The candidates are appended to
// sub and super (the caller's reused buffers), which are returned. Takes
// no lock, and loads the published view once.
func (c *Cache) scanIndex(qt ftv.QueryType, p probe, sub, super []*Entry) ([]*Entry, []*Entry) {
	// The scan counts in locals and publishes once: per-entry atomic adds
	// would be hundreds of RMWs on one shared line per query.
	fullChecks, indexPruned := 0, 0
	entries := c.published.Load().index
	for i := range entries {
		ie := &entries[i]
		if ie.typ != qt {
			continue
		}
		// Sub case q ⊑ h.
		ok, merged := p.in(&ie.summary)
		if merged {
			fullChecks++
		}
		if ok {
			sub = append(sub, ie.e)
			continue
		}
		pruned := !merged
		// Super case h ⊑ q.
		if ok, merged := p.holds(&ie.summary); merged {
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
	c.mon.hitScanEntries.Add(int64(len(entries)))
	c.mon.hitFullChecks.Add(int64(fullChecks))
	c.mon.hitIndexPruned.Add(int64(indexPruned))
	return sub, super
}
