// Package iso implements subgraph-isomorphism testing for undirected
// vertex-labelled graphs — the Verifier of GraphCache's Method M and the
// engine behind sub/super cache-hit detection.
//
// Two engines are provided:
//
//   - VF2 (Cordella et al., TPAMI 2004): the default verifier, implementing
//     non-induced subgraph isomorphism with connectivity-aware ordering and
//     one-step lookahead pruning.
//   - Ullmann (1976): the classic candidate-matrix algorithm with bitset
//     refinement, kept as an independent baseline and cross-check.
//
// Semantics: SubIso(p, t) == true iff there is an injective mapping
// f: V(p) → V(t) with label(v) == label(f(v)) for every vertex and
// {f(u), f(v)} ∈ E(t) for every {u, v} ∈ E(p). Edges of t outside the image
// are allowed (non-induced matching), matching the paper's setting.
package iso

import (
	"graphcache/internal/graph"
)

// Stats reports the work performed by a single matcher invocation.
type Stats struct {
	// Recursions is the number of search-tree nodes expanded.
	Recursions int64
	// Candidates is the number of (pattern, target) pair feasibility checks.
	Candidates int64
	// Aborted is true when the search hit Options.MaxRecursions before
	// finding an answer; the boolean result is then false and unreliable.
	Aborted bool
}

// Options bounds a matcher invocation.
type Options struct {
	// MaxRecursions caps search-tree nodes; 0 means unlimited. When the cap
	// is hit the match returns false with Stats.Aborted set.
	MaxRecursions int64
}

// SubIso reports whether pattern p is (non-induced) subgraph-isomorphic to
// target t using VF2.
func SubIso(p, t *graph.Graph) bool {
	ok, _ := VF2(p, t, Options{})
	return ok
}

// Isomorphic reports whether a and b are isomorphic labelled graphs.
// A non-induced embedding between graphs of equal vertex and edge count is
// necessarily a full isomorphism, so one VF2 run suffices after the size
// pre-checks. A graph is trivially isomorphic to itself: callers that
// prepare an immutable pattern once and re-issue it (the cache's
// exact-match probe then compares it against the very graph it admitted)
// skip the VF2 run on pointer identity.
func Isomorphic(a, b *graph.Graph) bool {
	if a == b {
		return true
	}
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	if !graph.LabelVectorOf(a).DominatedBy(graph.LabelVectorOf(b)) {
		return false
	}
	return SubIso(a, b)
}

// quickReject applies cheap necessary conditions for p ⊑ t: matching
// directedness, size, label multiset dominance, and per-label
// sorted-degree dominance (each pattern vertex must map to a
// same-labelled target vertex of at least its degree, injectively, which
// sorted sequences must permit). Both degree summaries come from the
// graphs' memo caches (graph.LabelDegrees), so repeated probes against
// the same graphs — the common case when verifying a candidate list —
// allocate nothing here.
func quickReject(p, t *graph.Graph) bool {
	if p.Directed() != t.Directed() {
		return true // mixed-directedness matching is undefined; no match
	}
	if p.N() > t.N() || p.M() > t.M() {
		return true
	}
	pd := p.LabelDegrees()
	td := t.LabelDegrees()
	for l, pds := range pd {
		tds, ok := td[l]
		if !ok || len(tds) < len(pds) {
			return true
		}
		// Both sorted descending: k-th largest pattern degree must fit
		// under k-th largest target degree.
		for i, d := range pds {
			if tds[i] < d {
				return true
			}
		}
	}
	return false
}
