package core

import (
	"graphcache/internal/ftv"
	"graphcache/internal/graph"
)

// The published resident view: the resident list itself, immutable flat
// arrays over it (the cache-entry feature index) and a fingerprint table,
// stored in one atomic pointer (Cache.published). The exact probe and hit
// detection read it entirely lock-free — no lock, no snapshot
// allocation, no per-query sort.
//
// Each query type has its own ID-ordered pair of arrays: a packed,
// pointer-free ftv.ScreenKey per entry and the entry beside it. The probe
// walks one fingerprint chain through the ID-ordered array of every
// entry. Detection tests the query's key against each key of its type in
// both directions with word compares, and dereferences an entry only
// when its key passes in some direction. For those it tests the degree
// tail of the entry's graph.FeatureVector, then runs one pass over the
// entry's packed row of Method M's trie against the query's own filter
// walk, kept open through the scan (the screen order is ftv.ScreenKey's).
// That pass is the last filter before the q↔h iso tests. A row compares
// only the nodes below the other side's watermark (ftv.Row), so an entry
// walked on an older trie still screens a query walked on a newer one.
//
// # Publication rules
//
// Writers never mutate a published view, its list included. It is
// replaced whole by publishLocked — under mu — whenever the resident list
// changes: a window turn or a state restore, each of which builds the
// next list in a fresh slice. Readers load the pointer once per probe
// or scan and work on that point-in-time view; an entry evicted after the
// load stays sound to use (its graph, answer set, vector and row are
// immutable, and a key is a copy of immutable fields). For a sequential
// stream the view is always the current resident list: it changes only
// inside mu, and every change publishes before the lock drops.
type resident struct {
	// keys[t] and typed[t] hold the entries of query type t, in ID
	// order: typed[t][i]'s screening key is keys[t][i].
	keys  [ftv.Supergraph + 1][]ftv.ScreenKey
	typed [ftv.Supergraph + 1][]*Entry
	// all holds every entry in ID order. byFP maps a fingerprint to the
	// position in all of its lowest-ID entry; next[i] is the position of
	// the next entry with all[i]'s fingerprint, in ascending ID order,
	// and -1 ends the chain.
	all   []*Entry
	next  []int32
	byFP  map[graph.Fingerprint]int32
	bytes int // Σ Entry.Bytes() over all, as tallied by a turn or restore
}

// publishLocked publishes all, a fresh ID-ordered resident list that is
// never written again, with its byte total. The index arrays are
// allocated at their exact sizes, from a count of each type, and filled
// in one backward pass. Walking the list backwards leaves each
// fingerprint mapped to its lowest-ID position with the chain ascending
// from there, and fills each type's arrays from their ends down. Caller
// holds mu.
func (c *Cache) publishLocked(all []*Entry, bytes int) {
	n := len(all)
	var ends [ftv.Supergraph + 1]int // where each type's positions end
	for _, e := range all {
		ends[e.Type]++
	}
	ends[ftv.Supergraph] += ends[ftv.Subgraph]
	keys := make([]ftv.ScreenKey, n)
	typed := make([]*Entry, n)
	r := &resident{
		all:   all,
		next:  make([]int32, n),
		byFP:  make(map[graph.Fingerprint]int32, n),
		bytes: bytes,
	}
	start := 0
	for t, end := range ends {
		r.keys[t], r.typed[t] = keys[start:end:end], typed[start:end:end]
		start = end
	}
	for i := n - 1; i >= 0; i-- {
		e := all[i]
		next, ok := r.byFP[e.Fingerprint]
		if !ok {
			next = -1
		}
		r.next[i] = next
		r.byFP[e.Fingerprint] = int32(i)
		t := e.Type
		ends[t]--
		keys[ends[t]] = ftv.NewScreenKey(e.FV, e.row)
		typed[ends[t]] = e
	}
	c.published.Store(r)
}

// scanIndex collects sub/super hit candidates among the published
// entries of the query's type: q ⊑ h into sub, h ⊑ q into super. fv is
// q's vector and d its walk's row. Each entry gets the containment screen
// in the order ftv.ScreenKey states, on its published key and its own
// fields in place: the keys refute most entries without reading them, the
// degree tail goes next, and the row pass against q's walk last. An entry
// refuted in both directions without a row pass is counted as
// index-pruned. The candidates are appended to sub and super (the
// caller's reused buffers), which are returned. Takes no lock, and loads
// the published view once.
func (c *Cache) scanIndex(qt ftv.QueryType, fv graph.FeatureVector, d *ftv.Decoded, sub, super []*Entry) ([]*Entry, []*Entry) {
	// The scan counts in locals and publishes once: per-entry atomic adds
	// would be hundreds of RMWs on one shared line per query.
	fullChecks, indexPruned := 0, 0
	r := c.published.Load()
	keys, typed := r.keys[qt], r.typed[qt]
	qk := ftv.NewScreenKey(fv, d.Row)
	for i := range keys {
		k := &keys[i]
		in, holds := qk.In(k), qk.Holds(k)
		if !in && !holds {
			indexPruned++
			continue
		}
		e := typed[i]
		in = in && fv.TailIn(&e.FV)
		holds = holds && e.FV.TailIn(&fv)
		if !in && !holds {
			indexPruned++
			continue
		}
		if in {
			fullChecks++
			if d.In(e.row) {
				sub = append(sub, e)
				continue
			}
		}
		if holds {
			fullChecks++
			if d.Holds(e.row) {
				super = append(super, e)
			}
		}
	}
	c.mon.hitScanEntries.Add(int64(len(r.all)))
	c.mon.hitFullChecks.Add(int64(fullChecks))
	c.mon.hitIndexPruned.Add(int64(indexPruned))
	return sub, super
}
