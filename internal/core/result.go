package core

import (
	"time"

	"graphcache/internal/bitset"
)

// HitRef reports one cache hit that contributed to a query, in the order
// hits were applied.
type HitRef struct {
	// EntryID identifies the cached query.
	EntryID int
	// Kind is exact, sub or super.
	Kind HitKind
	// SavedTests is this hit's individually credited savings.
	SavedTests int
}

// Result reports one cached query execution — the quantities The Query
// Journey visualizes (Figure 3): C_M, H/H', S, S', C, R and A.
//
// A Result is a read-only view: Clone a set before mutating it. An exact
// hit's Result is shared: every exact hit on one answer state of an entry
// returns the same *Result, so writing any of its fields would change the
// answer of every later hit. Its Answers (and Sure: A = S) IS the cache
// entry's published answer set — frozen by the copy-on-write contract,
// so a held Result stays a valid snapshot across later
// AddGraph/RemoveGraph calls (maintenance republishes a fresh set, and
// hits on it get a Result of their own), and mutating it would corrupt
// the cache. Mathematically equal fields alias one set elsewhere too:
// every empty Excluded and Survivors an exact hit returns, and the empty
// Excluded of a miss no pruning hit narrowed, is one frozen empty set the
// cache shares per dataset size; on a miss with no answer-delivering hit
// Answers and Survivors share one (A = R).
type Result struct {
	// Answers is the exact answer set A = R ∪ S (Figure 3(h)).
	Answers *bitset.Set
	// BaseCandidates is |C_M|, Method M's candidate count (Figure 3(b)) —
	// the number of sub-iso tests the base method would run.
	BaseCandidates int
	// Tests is |C|, the candidates left after cache pruning (Figure
	// 3(f)): every one of them is verified, so it is also the number of
	// dataset sub-iso tests executed — 0 on an exact hit.
	Tests int
	// Sure is S: graphs known to be answers without testing (Figure 3(c)).
	Sure *bitset.Set
	// Excluded is S′: graphs known to be non-answers (Figure 3(d)).
	Excluded *bitset.Set
	// Survivors is R: candidates that passed verification (Figure 3(g)).
	Survivors *bitset.Set
	// Hits lists contributing cache hits (H and H′, Figure 3(a)/(e)).
	Hits []HitRef
	// ExactHit is true when the query was answered purely from cache.
	ExactHit bool

	// FilterTime, HitTime and VerifyTime split the query's processing
	// cost: Method M filtering, sub/super hit detection, verification.
	// All three are 0 on an exact hit, which reads no clock: a caller
	// that wants its latency times the call.
	FilterTime time.Duration
	HitTime    time.Duration
	VerifyTime time.Duration

	// hit backs an exact hit's Hits.
	hit [1]HitRef
}

// TestSpeedup returns the per-query speedup in test numbers, the figure
// The Query Journey reports (75/43 = 1.74 in the paper's example).
// Queries with zero executed tests report base+1 to stay finite.
func (r *Result) TestSpeedup() float64 {
	if r.Tests == 0 {
		return float64(r.BaseCandidates + 1)
	}
	return float64(r.BaseCandidates) / float64(r.Tests)
}

// SubHitCount and SuperHitCount count contributions by kind.
func (r *Result) SubHitCount() int {
	n := 0
	for _, h := range r.Hits {
		if h.Kind == SubHit {
			n++
		}
	}
	return n
}

// SuperHitCount counts super-case contributions.
func (r *Result) SuperHitCount() int {
	n := 0
	for _, h := range r.Hits {
		if h.Kind == SuperHit {
			n++
		}
	}
	return n
}
