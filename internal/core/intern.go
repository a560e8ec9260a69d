package core

import (
	"sync"
	"sync/atomic"

	"graphcache/internal/bitset"
)

// Cross-entry answer-set interning. Cached answer sets repeat: queries
// over the same hot region converge on identical answer sets, dataset
// removals collapse near-identical sets onto each other, and a restore
// rebuilds many entries from one dataset. Because published answer sets
// are immutable (the COW publication rule — maintenance swaps whole
// sets, never edits one), identical sets can safely share one
// allocation. The internPool is the cache-wide registry that makes the
// sharing happen: entries acquire a refcounted canonical set keyed by
// content fingerprint, and the residency accounting charges each
// canonical set once, no matter how many entries publish it.
//
// Lifecycle: a set is acquired when its entry is admitted
// (Cache.insertLocked) and whenever a maintenance pass notices the entry
// published a new set (rechargeLocked, the true-up point); it is released
// when the entry is evicted (Cache.evictLocked) or trued up onto a
// different set. Lazy reconciliation on the query path deliberately
// bypasses the pool — reconciledAnswers is //gclint:nolocks — so freshly
// patched sets ride uninterned until the next window turn or
// stop-the-world pass, exactly like their byte accounting always has.
//
// The pool hashes nothing. Every caller runs under policyMu, most of
// them under the whole hierarchy with the world stopped, so acquire takes
// the fingerprint the published answerState carries (bitset.Set.Fingerprint:
// hashed once by the goroutine that built the set, then maintained by
// ±ElemHash through mutations) and release takes the node acquire
// returned. The fingerprint sees neither capacity nor container, so the
// sets of one logical answer at two dataset sizes share a bucket; Equal
// decides every match, which keeps the hash a pure performance device.

// internPool is a fingerprint-keyed, refcounted pool of canonical answer
// sets. Buckets resolve fingerprint collisions by content equality.
type internPool struct {
	// mu guards m and the node refcounts. A leaf: acquire/release run
	// under policyMu, and nothing is acquired inside the
	// critical section (bucket scans call only pure bitset reads).
	//gclint:lock internMu
	//gclint:leaf
	mu sync.Mutex
	m  map[uint64][]*internNode

	// bytes is the total footprint of the pooled canonical sets, each
	// charged exactly once. Atomic so Cache.Bytes and the memory-budget
	// loops read it without the pool lock.
	bytes atomic.Int64
	// hits counts acquires that landed on an already-pooled set (the
	// sharing the pool exists for); misses counts acquires that inserted
	// a new canonical set.
	hits   atomic.Int64
	misses atomic.Int64
}

// internNode is one canonical set, the fingerprint it is bucketed under
// and the number of entries publishing it.
type internNode struct {
	set  *bitset.Set
	fp   uint64
	refs int
}

func newInternPool() *internPool {
	return &internPool{m: make(map[uint64][]*internNode)}
}

// acquire interns set, whose fingerprint is fp: if an equal set is already
// pooled, its refcount grows and that node is returned (the caller should
// publish node.set and let set become garbage); otherwise set itself
// becomes a canonical with one reference. The caller must treat set as
// immutable from this point — it may already be, or now become, shared.
//
//gclint:acquires internMu
func (p *internPool) acquire(set *bitset.Set, fp uint64) *internNode {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, nd := range p.m[fp] {
		if nd.set == set || nd.set.Equal(set) {
			nd.refs++
			p.hits.Add(1)
			return nd
		}
	}
	nd := &internNode{set: set, fp: fp, refs: 1}
	p.m[fp] = append(p.m[fp], nd)
	p.misses.Add(1)
	p.bytes.Add(int64(set.Bytes()))
	return nd
}

// release drops one reference to a node previously returned by acquire,
// removing it from the pool (and its bytes from the account) when the
// last reference goes. A nil node, a drained node and a node orphaned by
// reset are no-ops on the account, so release can never unbalance it.
//
//gclint:acquires internMu
func (p *internPool) release(nd *internNode) {
	if nd == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if nd.refs == 0 {
		return
	}
	if nd.refs--; nd.refs > 0 {
		return
	}
	bucket := p.m[nd.fp]
	for i, x := range bucket {
		if x != nd {
			continue // a fingerprint twin, not our canonical
		}
		bucket[i] = bucket[len(bucket)-1]
		bucket[len(bucket)-1] = nil
		if bucket = bucket[:len(bucket)-1]; len(bucket) == 0 {
			delete(p.m, nd.fp)
		} else {
			p.m[nd.fp] = bucket
		}
		p.bytes.Add(int64(-nd.set.Bytes()))
		return
	}
}

// reset empties the pool — the state-restore path, which drops the
// resident list wholesale and re-interns the restored entries from
// scratch. The hit/miss counters survive (they are lifetime telemetry,
// like the Monitor's).
//
//gclint:acquires internMu
func (p *internPool) reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.m = make(map[uint64][]*internNode)
	p.bytes.Store(0)
}

// distinctSets returns the number of pooled canonical sets (for tests
// and stats).
//
//gclint:acquires internMu
func (p *internPool) distinctSets() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, bucket := range p.m {
		n += len(bucket)
	}
	return n
}
