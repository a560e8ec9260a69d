// Package iso implements subgraph-isomorphism testing for vertex-labelled
// graphs — undirected or directed, with or without edge labels — the
// Verifier of GraphCache's Method M and the engine behind sub/super
// cache-hit detection.
//
// Two engines are provided:
//
//   - VF2 (Cordella et al., TPAMI 2004): the default verifier, implementing
//     non-induced subgraph isomorphism with one-step lookahead pruning. It
//     searches along the pattern's match plan (graph.MatchPlan): rooted at a
//     vertex of the pattern's rarest label, grown connected, with the
//     anchor each step draws its candidates from fixed once per pattern, so
//     the inner loop is adjacency probes and nothing else. A target vertex
//     is tried only if its neighbourhood carries at least the labels the
//     pattern vertex's does (graph.SigDominates, one word compare per
//     direction — STwig's star test, applied per candidate vertex), which
//     halves the search on molecule data. One search routine, Matcher.match,
//     serves all four graph kinds and every entry point: VF2, FindEmbedding
//     and CountEmbeddings bind a pattern, match one target and release; a
//     caller with one pattern and many targets (the verification stage of a
//     subgraph query) keeps the Matcher from Bind and pays per target only
//     for the search. Both graphs are read through their graph.CSR arrays,
//     copied into the matcher, never through *graph.Graph.
//   - Ullmann (1976): the classic candidate-matrix algorithm with bitset
//     refinement, kept as an independent baseline and cross-check.
//
// Semantics: SubIso(p, t) == true iff there is an injective mapping
// f: V(p) → V(t) with label(v) == label(f(v)) for every vertex and, for
// every edge (arc, when directed) uv of p, f(u)f(v) an edge of t with the
// same edge label. Edges of t outside the image are allowed (non-induced
// matching), matching the paper's setting. Graphs of different
// directedness never match.
package iso

import (
	"graphcache/internal/graph"
)

// Stats reports the work performed by a single matcher invocation.
type Stats struct {
	// Recursions is the number of search-tree nodes expanded.
	Recursions int64
	// Candidates is the number of (pattern, target) vertex pairs put to the
	// feasibility rules; VF2 does not count the pairs its label and
	// injectivity screen drops first.
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
// pre-checks (VF2's own quickReject compares the label multisets, and the
// degrees under each label besides). A graph is trivially isomorphic to
// itself: callers that prepare an immutable pattern once and re-issue it
// (the cache's exact-match probe then compares it against the very graph
// it admitted) skip the VF2 run on pointer identity. The search runs along
// a's match plan and needs only b's label-degree summary, so a caller
// holding one graph it has matched before and one it has not passes the
// former first.
func Isomorphic(a, b *graph.Graph) bool {
	if a == b {
		return true
	}
	if a.N() != b.N() || a.M() != b.M() {
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
// the same graphs allocate nothing here. It belongs where nothing has
// filtered the pair yet — the cache's q↔h probes, SubIso — and the one-shot
// entry points run it; Matcher.Match does not: after Method M's filter it
// rejected 0.34 % of candidates at a sixth of a test's cost.
//
//gclint:noalloc
func quickReject(p, t *graph.Graph) bool {
	if p.Directed() != t.Directed() {
		return true // mixed-directedness matching is undefined; no match
	}
	if p.N() > t.N() || p.M() > t.M() {
		return true
	}
	// Merge-walk the two label-sorted summaries: inside a label run both
	// are sorted descending, so the k-th largest pattern degree must fit
	// under the k-th largest target degree of that label.
	pd, td := p.LabelDegrees(), t.LabelDegrees()
	j := 0
	for i, e := range pd {
		if i > 0 && pd[i-1].Label == e.Label {
			j++
		} else {
			for j < len(td) && td[j].Label < e.Label {
				j++
			}
		}
		if j >= len(td) || td[j].Label != e.Label || td[j].Degree < e.Degree {
			return true
		}
	}
	return false
}
