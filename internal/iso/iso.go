// Package iso implements subgraph-isomorphism testing for vertex-labelled
// graphs — undirected or directed, with or without edge labels — the
// Verifier of GraphCache's Method M and the engine behind sub/super
// cache-hit detection.
//
// The engine is VF2 (Cordella et al., TPAMI 2004), implementing non-induced
// subgraph isomorphism with one-step lookahead pruning. It searches along
// the pattern's match plan (graph.MatchPlan): rooted at a vertex of the
// pattern's rarest label, grown connected, with the anchor each step draws
// its candidates from fixed once per pattern, so the inner loop is
// adjacency probes and nothing else. The plan is memoized on the pattern
// packed, 2 bytes a step below 128 vertices, and each depth of a search
// decodes its own step from those bytes in place. A target vertex is
// tried only if its neighbourhood carries at least the labels the
// pattern vertex's does (graph.SigDominates, one word compare per
// direction — STwig's star test, applied per candidate vertex), which
// halves the search on molecule data.
// That is the matcher's only screen besides directedness and size: the
// callers screen their pairs first (Method M's filter, the cache's
// summaries of Method M's trie rows). One search routine, Matcher.match, serves all
// four graph kinds and every entry point: VF2 binds a pattern, matches
// one target and releases; a caller with one pattern and
// many targets (the verification stage of a subgraph query) keeps the
// Matcher from Bind and pays per target only for the search. Both graphs
// are read through their graph.CSR arrays — slice headers into each
// graph's block, which graph.CSR works out from the graph's header once
// per binding and once per target and the matcher keeps — never through
// *graph.Graph; a neighbour entry is a uint16.
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
// check. A graph is trivially isomorphic to itself: callers that prepare
// an immutable pattern once and re-issue it (the cache's exact-match probe
// then compares it against the very graph it admitted) skip the VF2 run on
// pointer identity. The search runs along a's match plan and needs nothing
// computed of b, so a caller holding one graph it has matched before and
// one it has not passes the former first.
func Isomorphic(a, b *graph.Graph) bool {
	if a == b {
		return true
	}
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	return SubIso(a, b)
}
