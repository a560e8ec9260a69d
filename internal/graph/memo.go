package graph

import (
	"slices"
	"sync/atomic"
)

// Memoized derived summaries.
//
// Graphs are immutable after Build, so summaries that depend only on the
// structure — the matcher's plan, the WL fingerprint — can be computed
// once and shared by every reader. The subgraph-isomorphism hot path
// recomputed these on every invocation, which made them the dominant
// allocation sites of query execution; the memoized accessors below make
// every invocation after the first allocation-free.
//
// Each summary sits behind its own atomic pointer so a dataset graph that
// is only ever a verification *target* never pays for the pattern-side
// match plan. Two goroutines racing on first use may both compute the
// summary; the values are identical and the loser's copy is garbage, so
// no further synchronization is needed. Callers must treat every returned
// slice and map as read-only.

// PlanStep is one depth of a MatchPlan: the pattern vertex V matched
// there and its anchor, the earliest-ordered neighbour of V. Anchor is -1
// for the first vertex of a component; otherwise it is a<<1|out, where
// out=1 says the arc V→a exists (always, when undirected), so V's
// candidates are the in-neighbours of a's image, and out=0 that only a→V
// does, so they are its out-neighbours.
type PlanStep struct {
	V, Anchor int32
}

// MatchPlan returns the pattern-side search plan of the isomorphism
// matcher, a function of the graph alone. The next vertex is always the
// one with the most already-ordered neighbours (either direction), then
// the label rarest in the graph, then the highest degree, then the lowest
// id. So the plan roots at a rarest-label vertex, where a target has the
// fewest candidates, grows connected (weakly, for directed graphs), and
// starts a further component at its rarest label again. The result is
// memoized on the graph; callers must not modify it.
func (g *Graph) MatchPlan() []PlanStep {
	if p := g.memoPlan.Load(); p != nil {
		return *p
	}
	n := g.N()
	plan := make([]PlanStep, 0, n)
	// One scratch array, four columns per vertex: conn, the number of
	// ordered neighbours, -1 once ordered itself; anchor, as in PlanStep;
	// rare, the number of vertices sharing the vertex's label, counted
	// by binary search in sorted, the labels in ascending order.
	scratch := make([]int32, 4*n)
	conn, anchor, rare, sorted := scratch[:n], scratch[n:2*n], scratch[2*n:3*n], scratch[3*n:]
	for v, l := range g.c.Labels {
		sorted[v] = int32(l)
	}
	slices.Sort(sorted)
	for v, l := range g.c.Labels {
		lo, _ := slices.BinarySearch(sorted, int32(l))
		hi, _ := slices.BinarySearch(sorted, int32(l)+1)
		rare[v] = int32(hi - lo)
	}
	before := func(v, b int) bool {
		if conn[v] != conn[b] {
			return conn[v] > conn[b]
		}
		if rare[v] != rare[b] {
			return rare[v] < rare[b]
		}
		return g.OutDegree(v)+g.InDegree(v) > g.OutDegree(b)+g.InDegree(b)
	}
	// touch counts a newly ordered vertex towards its neighbours in list
	// and becomes the anchor of those it is the first to reach.
	touch := func(list []int32, a int32) {
		for _, w := range list {
			if anchor[w] < 0 {
				anchor[w] = a
			}
			if conn[w] >= 0 {
				conn[w]++
			}
		}
	}
	for v := range anchor {
		anchor[v] = -1
	}
	for len(plan) < n {
		best := -1
		for v := 0; v < n; v++ {
			if conn[v] >= 0 && (best < 0 || before(v, best)) {
				best = v
			}
		}
		plan = append(plan, PlanStep{int32(best), anchor[best]})
		conn[best] = -1
		touch(g.InNeighbors(best), int32(best)<<1|1) // arcs w→best
		if g.directed {
			touch(g.OutNeighbors(best), int32(best)<<1) // arcs best→w
		}
	}
	g.memoPlan.Store(&plan)
	return plan
}

// memoSet is the pair of lazily-computed summary slots embedded in
// Graph. It is excluded from WithID's shallow copy semantics manually:
// atomic values must not be copied, so WithID re-shares the already
// computed pointers instead of copying the struct.
type memoSet struct {
	memoPlan atomic.Pointer[[]PlanStep]
	memoFP   atomic.Pointer[fpMemo]
}

// fpMemo caches the WL fingerprint for one round count — the cache keeps
// only the most recently requested rounds value, which suffices because
// every production caller uses a fixed count.
type fpMemo struct {
	rounds int
	fp     Fingerprint
}

// shareFrom copies the memoized summary pointers from src. Sound only
// when the receiver describes the same structure as src (labels and
// adjacency shared), as in WithID.
func (m *memoSet) shareFrom(src *memoSet) {
	m.memoPlan.Store(src.memoPlan.Load())
	m.memoFP.Store(src.memoFP.Load())
}
