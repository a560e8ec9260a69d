package core

import "fmt"

// HitKind classifies a cache hit.
type HitKind uint8

const (
	// ExactHit: the new query is isomorphic to the cached one.
	ExactHit HitKind = iota
	// SubHit: the new query is a subgraph of the cached one (sub case).
	SubHit
	// SuperHit: the new query is a supergraph of the cached one (super case).
	SuperHit
)

// String names the hit kind.
func (k HitKind) String() string {
	switch k {
	case ExactHit:
		return "exact"
	case SubHit:
		return "sub"
	case SuperHit:
		return "super"
	}
	return fmt.Sprintf("HitKind(%d)", k)
}

// HitEvent describes one cached entry's contribution to one query,
// delivered to the policy's UpdateCacheStaInfo — the paper's
// "upon the contribution in accelerating other queries".
type HitEvent struct {
	// Entry is the contributing cached query.
	Entry *Entry
	// Kind is the hit type.
	Kind HitKind
	// SavedTests is the number of dataset sub-iso tests this hit saved,
	// credited individually (overlapping hits each receive their own
	// savings, per DESIGN.md §6).
	SavedTests int
	// SavedCostNs estimates the cost of those saved tests from the
	// per-dataset-graph verification-cost EMAs.
	SavedCostNs float64
	// Tick is the query sequence number; on a folded event (see Count)
	// the entry's LATEST exact hit, which can trail a sub/super tick
	// already delivered — keep the maximum, do not assign.
	Tick int64
	// Count is how many identical contributions the event stands for; 0
	// means 1 (read it through N). Sub/super hits arrive one by one; exact
	// hits arrive folded per entry (doc.go, credit cells). SavedTests and
	// SavedCostNs stay per-contribution.
	Count int
}

// N returns the number of contributions the event stands for.
func (ev *HitEvent) N() int {
	return max(ev.Count, 1)
}

// Policy is the replacement-policy extension point, mirroring the abstract
// Cache class of Figure 2(d):
//
//   - UpdateCacheStaInfo ↔ updateCacheStaInfo: update graph utilities upon
//     a contribution to accelerating another query;
//   - ReplacedContent ↔ getReplacedContent: return the positions of the
//     top x cached graphs to be replaced (least utility first);
//   - the Cache Manager performs the actual replacement
//     (↔ updateCacheItems) using those positions.
//
// Implementations may keep private state but must be deterministic given
// the same event sequence (RAND keeps a seeded generator). OnWindowTurn is
// called at every admission-window boundary for aging.
type Policy interface {
	// Name identifies the policy in reports ("lru", "hd", ...).
	Name() string
	// UpdateCacheStaInfo folds ev.N() identical hit contributions into
	// the utilities; ev.Credit() is the standard bookkeeping. BREAKING
	// since PR 13: exact hits arrive batched per entry (HitEvent.Count),
	// so an implementation that does e.Hits++ and e.LastUsed = ev.Tick
	// still compiles but under-counts and can rewind recency.
	UpdateCacheStaInfo(ev *HitEvent)
	// ReplacedContent returns the indices (positions into entries) of the
	// x entries with least utility, the ones to evict. If x ≥ len(entries)
	// all indices are returned. The returned indices are distinct.
	ReplacedContent(entries []*Entry, x int) []int
	// OnWindowTurn notifies the policy of an admission-window boundary.
	OnWindowTurn()
}
