package iso

import (
	"sync"

	"graphcache/internal/graph"
)

// statePool recycles vf2State values (and their core slices) across
// invocations. Cache hit detection and candidate verification run VF2
// once per candidate graph, so without pooling every probe pays three
// O(n) allocations; with it a steady-state matcher invocation allocates
// nothing. The plan is not pooled — it comes from the pattern's memo
// cache (graph.MatchPlan) and is shared read-only.
var statePool = sync.Pool{New: func() any { return new(vf2State) }}

// acquireState returns a ready-to-run matcher state for p ⊑ t with all
// flags cleared and both core arrays reset to -1.
func acquireState(p, t *graph.Graph) *vf2State {
	m := statePool.Get().(*vf2State)
	m.p, m.t = p, t
	m.plan = p.MatchPlan()
	m.elabels = p.HasEdgeLabels() || t.HasEdgeLabels()
	m.pCore = resetCore(m.pCore, p.N())
	m.tCore = resetCore(m.tCore, t.N())
	m.opts = Options{}
	m.st = Stats{}
	m.aborted = false
	m.capture = false
	m.count = false
	m.limit = 0
	m.found = 0
	return m
}

// releaseState drops the graph references (so pooled states never pin
// graphs) and returns the state to the pool.
func releaseState(m *vf2State) {
	m.p, m.t = nil, nil
	m.plan = nil
	statePool.Put(m)
}

// resetCore returns s resized to n with every slot set to -1, reusing the
// backing array when capacity allows.
func resetCore(s []int32, n int) []int32 {
	if cap(s) < n {
		s = make([]int32, n)
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = -1
	}
	return s
}

// VF2 runs the VF2 subgraph-isomorphism search and reports whether p ⊑ t,
// together with search statistics. opts bounds the search; on an aborted
// search the boolean is false and Stats.Aborted is set.
func VF2(p, t *graph.Graph, opts Options) (bool, Stats) {
	if p.N() == 0 {
		return true, Stats{} // the empty pattern embeds everywhere
	}
	if quickReject(p, t) {
		return false, Stats{}
	}
	m := acquireState(p, t)
	m.opts = opts
	ok := m.match(0) && !m.aborted
	st := m.st
	st.Aborted = m.aborted
	releaseState(m)
	return ok, st
}

// FindEmbedding returns one embedding of p into t as a mapping from pattern
// vertex to target vertex, or nil if none exists.
func FindEmbedding(p, t *graph.Graph) []int {
	if p.N() == 0 {
		return []int{}
	}
	if quickReject(p, t) {
		return nil
	}
	m := acquireState(p, t)
	m.capture = true
	if !m.match(0) {
		releaseState(m)
		return nil
	}
	out := make([]int, p.N())
	for i, v := range m.pCore {
		out[i] = int(v)
	}
	releaseState(m)
	return out
}

// CountEmbeddings counts embeddings of p into t, stopping at limit
// (limit <= 0 counts all). Symmetric pattern automorphisms are counted
// separately, as is standard.
func CountEmbeddings(p, t *graph.Graph, limit int) int {
	if p.N() == 0 {
		return 1
	}
	if quickReject(p, t) {
		return 0
	}
	m := acquireState(p, t)
	m.count = true
	m.limit = limit
	m.match(0)
	found := m.found
	releaseState(m)
	return found
}

type vf2State struct {
	p, t    *graph.Graph
	plan    []graph.PlanStep
	pCore   []int32 // pattern vertex -> target vertex or -1
	tCore   []int32 // target vertex -> pattern vertex or -1
	elabels bool    // either graph carries edge labels
	opts    Options
	st      Stats
	aborted bool

	capture bool // stop at first match, keep mapping
	count   bool // enumerate matches
	limit   int
	found   int
}

// match extends the partial mapping at the given depth of the plan. It
// returns true when the search can stop (a match was found in decision
// mode, or the enumeration limit was reached in counting mode).
//
//gclint:noalloc
func (m *vf2State) match(depth int) bool {
	if depth == len(m.plan) {
		if m.count {
			m.found++
			return m.limit > 0 && m.found >= m.limit
		}
		return true
	}
	m.st.Recursions++
	if m.opts.MaxRecursions > 0 && m.st.Recursions > m.opts.MaxRecursions {
		m.aborted = true
		return false
	}
	// Candidates for step.V: at the first vertex of a component every
	// target vertex; otherwise the correspondingly-adjacent vertices of
	// the anchor's image (see graph.PlanStep for the direction). Either
	// way screened by label and injectivity before the feasibility rules.
	step := m.plan[depth]
	label, tLabels := m.p.Label(int(step.V)), m.t.Labels()
	var cands []int32
	n := len(tLabels)
	if step.Anchor >= 0 {
		img := int(m.pCore[step.Anchor>>1])
		cands = m.t.OutNeighbors(img)
		if step.Anchor&1 != 0 {
			cands = m.t.InNeighbors(img)
		}
		n = len(cands)
	}
	for i := 0; i < n; i++ {
		tv := int32(i)
		if step.Anchor >= 0 {
			tv = cands[i]
		}
		if tLabels[tv] != label || m.tCore[tv] >= 0 {
			continue
		}
		m.st.Candidates++
		if !m.feasible(step, tv) {
			continue
		}
		m.pCore[step.V] = tv
		m.tCore[tv] = step.V
		done := m.match(depth + 1)
		if done && m.capture {
			return true // keep the completed mapping intact
		}
		m.pCore[step.V] = -1
		m.tCore[tv] = -1
		if done || m.aborted {
			return done
		}
	}
	return false
}

// feasible applies the VF2 feasibility rules for non-induced matching to
// a label-screened, unmatched tv: degree sufficiency, consistency
// (direction- and edge-label-aware) with all matched pattern neighbors,
// and a one-step lookahead comparing unmatched-neighbor counts per
// direction. The anchor arc exists by construction of the candidate
// list, so only its edge label is tested.
//
//gclint:noalloc
func (m *vf2State) feasible(step graph.PlanStep, tv int32) bool {
	pu := int(step.V)
	pOut, tOut := m.p.OutNeighbors(pu), m.t.OutNeighbors(int(tv))
	if len(tOut) < len(pOut) || m.t.InDegree(int(tv)) < m.p.InDegree(pu) {
		return false
	}
	// Every matched out-neighbor pn of pu (edge pu→pn) must map to an
	// out-neighbor of tv with a matching edge label; dually for
	// in-neighbors. For undirected graphs Out==In, so one loop suffices.
	// The anchor arc needs no probe in the direction the candidates came
	// from (-1 at a component root: no neighbour is the anchor).
	anchor, anchorOut := step.Anchor>>1, step.Anchor&1 != 0
	pending := 0
	for _, pn := range pOut {
		img := m.pCore[pn]
		if img < 0 {
			pending++
			continue
		}
		if !(pn == anchor && anchorOut) && !m.t.HasEdge(int(tv), int(img)) {
			return false
		}
		if m.elabels && m.p.EdgeLabel(pu, int(pn)) != m.t.EdgeLabel(int(tv), int(img)) {
			return false
		}
	}
	// Lookahead: tv needs at least as many unmatched out-/in-neighbors as
	// pu has pending in each direction.
	if !m.available(tOut, pending) {
		return false
	}
	if !m.p.Directed() {
		return true
	}
	pending = 0
	for _, pn := range m.p.InNeighbors(pu) {
		img := m.pCore[pn]
		if img < 0 {
			pending++
			continue
		}
		if !(pn == anchor && !anchorOut) && !m.t.HasEdge(int(img), int(tv)) {
			return false
		}
		if m.elabels && m.p.EdgeLabel(int(pn), pu) != m.t.EdgeLabel(int(img), int(tv)) {
			return false
		}
	}
	return m.available(m.t.InNeighbors(int(tv)), pending)
}

// available reports whether at least need of the target vertices in
// list are still unmatched.
//
//gclint:noalloc
func (m *vf2State) available(list []int32, need int) bool {
	for _, tn := range list {
		if need <= 0 {
			break
		}
		if m.tCore[tn] < 0 {
			need--
		}
	}
	return need <= 0
}
