package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"graphcache/internal/graph"
)

// DefaultShards is the shard count selected when Config.Shards is zero.
// The count changes no answer, hit class or cache content — only how many
// stripes the exact probe's read lock and the index slices are spread
// over. The per-query critical section is a map-lookup copy, so four
// stripes comfortably serve the 8-worker benchmarks; raise Config.Shards
// on machines with more cores than that.
const DefaultShards = 4

// residency is the cache-wide resident-entry account: entry and byte
// counts maintained atomically by every shard insert/remove, so Len and
// Bytes read them without any shard lock. bytes covers the entries'
// static footprints only; answer-set bytes live in the intern pool's
// account, charged once per canonical set (Cache.Bytes sums the two).
type residency struct {
	entries atomic.Int64
	bytes   atomic.Int64
}

// shard is one lock-striped partition of the admitted entries. Entries are
// assigned to shards by graph fingerprint, so the exact-match fast path
// touches exactly one shard. Within a shard, entries is kept sorted by
// ascending ID (admission order) — the invariant that keeps candidate
// enumeration, the feature-index merge and replacement-policy input
// deterministic at any shard count.
type shard struct {
	// mu guards entries/byFP/memBytes. Innermost rung of the
	// hierarchy; every shard lock shares the rank, and lockAll's
	// index-ordered sweep is the only multi-shard acquisition.
	//gclint:lock shard
	mu       sync.RWMutex
	entries  []*Entry
	byFP     map[graph.Fingerprint][]*Entry
	memBytes int

	// res is the cache-wide resident account, shared by every shard.
	res *residency

	// pool is the cache-wide answer-set intern pool, shared by every
	// shard: insertLocked acquires a canonical set for each admitted
	// entry, removeLocked releases it. Its own leaf mutex synchronizes
	// cross-shard acquire/release under any shard lock.
	pool *internPool

	// summaries is this shard's published slice of the feature index:
	// an immutable, ID-ordered array of containment summaries for the
	// shard's admitted entries. Replaced (never mutated) under policyMu
	// plus this shard's write lock; read lock-free by scanIndex.
	//
	//gclint:snapshot summaries
	summaries atomic.Pointer[[]indexEntry]
}

func newShards(n int, res *residency, pool *internPool) []*shard {
	ss := make([]*shard, n)
	for i := range ss {
		ss[i] = &shard{byFP: make(map[graph.Fingerprint][]*Entry), res: res, pool: pool}
	}
	return ss
}

// shardFor maps a fingerprint to its owning shard.
func (c *Cache) shardFor(fp graph.Fingerprint) *shard {
	return c.shards[uint64(fp)%uint64(len(c.shards))]
}

// insertLocked admits e into the shard. Caller holds the shard write lock.
// Admissions arrive in ascending-ID order (IDs are claimed monotonically
// under windowMu, which stages the entry, and entries only ever move from
// the window into a shard), so appending preserves the sorted-by-ID
// invariant.
//
//gclint:requires shard
//gclint:acquires internMu
func (sh *shard) insertLocked(e *Entry) {
	sh.entries = append(sh.entries, e)
	sh.byFP[e.Fingerprint] = append(sh.byFP[e.Fingerprint], e)
	// Intern the answer set: an entry admitting a set another entry
	// already publishes collapses onto that canonical allocation. The
	// republish is a CAS because a query that found this entry while it
	// was window-pending can be lazily reconciling it right now — losing
	// that race just defers the swap to the next true-up (the pool
	// reference is held either way).
	st := e.answers()
	if st.body == nil {
		e.interned = sh.pool.acquire(st.set, st.fp)
		if e.interned.set != st.set {
			e.swapCanonical(st, e.interned.set)
		}
	}
	// A pending lazy body (state restore, persist.go) has nothing resident
	// to intern: e.interned stays nil (released as a no-op on eviction) and
	// the pool reference catches up at the first true-up after fault-in.
	// The entry's own charge is its static footprint; the shared answer
	// bytes are charged once by the pool.
	e.resBytes = e.staticBytes
	sh.memBytes += e.resBytes
	sh.res.entries.Add(1)
	sh.res.bytes.Add(int64(e.resBytes))
}

// removeLocked evicts e from the shard, preserving the order of the
// remaining entries. Caller holds the shard write lock. The entries slice
// is ID-sorted by invariant, so the victim is located with a binary search
// instead of a linear scan; a non-resident e (already evicted) is a no-op
// so the byte and residency accounts can never be decremented twice. The
// byFP list uses swap-delete, mirroring the pre-sharding kernel so
// fingerprint-collision scan order stays identical to the serialized
// engine's.
//
//gclint:requires shard
//gclint:acquires internMu
func (sh *shard) removeLocked(e *Entry) {
	i := sort.Search(len(sh.entries), func(i int) bool {
		return sh.entries[i].ID >= e.ID
	})
	if i >= len(sh.entries) || sh.entries[i] != e {
		return
	}
	copy(sh.entries[i:], sh.entries[i+1:])
	sh.entries[len(sh.entries)-1] = nil
	sh.entries = sh.entries[:len(sh.entries)-1]
	list := sh.byFP[e.Fingerprint]
	for i, x := range list {
		if x == e {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(sh.byFP, e.Fingerprint)
	} else {
		sh.byFP[e.Fingerprint] = list
	}
	sh.memBytes -= e.resBytes
	sh.res.entries.Add(-1)
	sh.res.bytes.Add(int64(-e.resBytes))
	// Drop this entry's reference to its canonical answer set; the pool
	// account sheds the set's bytes with the last sharer.
	sh.pool.release(e.interned)
	e.interned = nil
}

// lockAll / unlockAll acquire every shard write lock in index order. Only
// the stop-the-world paths use them — window turns, dataset mutations and
// state save/restore; the lock hierarchy is windowMu → policyMu → shard locks,
// and reverse nestings never occur, so the fixed acquisition order is
// deadlock-free.
//
//gclint:holds shard
func (c *Cache) lockAll() {
	for _, sh := range c.shards {
		sh.mu.Lock()
	}
}

//gclint:releases shard
func (c *Cache) unlockAll() {
	for i := len(c.shards) - 1; i >= 0; i-- {
		c.shards[i].mu.Unlock()
	}
}

// gatherLocked returns all admitted entries across shards sorted by
// ascending ID — exactly the entries slice a single-shard cache would
// hold. Caller holds every shard lock (read or write).
//
//gclint:requires shard
func (c *Cache) gatherLocked() []*Entry {
	parts := make([][]*Entry, 0, len(c.shards))
	for _, sh := range c.shards {
		if len(sh.entries) > 0 {
			parts = append(parts, sh.entries)
		}
	}
	return mergeByID(parts)
}

// mergeByID merges ID-sorted, non-empty entry slices into one fresh
// ID-sorted slice. It consumes parts (the slice of slices, not the
// entries they share with their shards). Each step scans the parts' next
// IDs, kept side by side in heads, for the smallest: O(entries × parts)
// integer compares over one small array, which at the shard counts a
// cache has beats a comparison sort's closure call per compare several
// times over.
func mergeByID(parts [][]*Entry) []*Entry {
	total := 0
	heads := make([]int, len(parts))
	for i, p := range parts {
		total += len(p)
		heads[i] = p[0].ID
	}
	all := make([]*Entry, 0, total)
	for len(parts) > 1 {
		m := 0
		for i, id := range heads {
			if id < heads[m] {
				m = i
			}
		}
		all = append(all, parts[m][0])
		if parts[m] = parts[m][1:]; len(parts[m]) > 0 {
			heads[m] = parts[m][0].ID
			continue
		}
		last := len(parts) - 1
		parts[m], heads[m] = parts[last], heads[last]
		parts, heads = parts[:last], heads[:last]
	}
	if len(parts) == 1 {
		all = append(all, parts[0]...)
	}
	return all
}

// entriesSnapshot gathers a point-in-time, ID-ordered copy of the admitted
// entries, taking each shard read lock in turn. Entries evicted after the
// snapshot remain safe to read: their graphs and answer sets are immutable
// and still correct with respect to the immutable dataset.
//
// An empty cache returns nil without allocating, and a snapshot that
// drained from a single shard (or a single-shard cache) is that shard's
// copy as is — each shard is already ID-sorted. Indexed hit detection
// bypasses this entirely (it reads the published feature index); the
// remaining callers are Entries() and the IndexOff baseline scan.
//
//gclint:acquires shard
func (c *Cache) entriesSnapshot() []*Entry {
	var parts [][]*Entry
	for _, sh := range c.shards {
		sh.mu.RLock()
		if len(sh.entries) > 0 {
			parts = append(parts, append([]*Entry(nil), sh.entries...))
		}
		sh.mu.RUnlock()
	}
	switch len(parts) {
	case 0:
		return nil
	case 1:
		return parts[0]
	}
	return mergeByID(parts)
}
