package iso

import (
	"sync"

	"graphcache/internal/graph"
)

// matcherPool recycles Matcher values (and their core slices) across
// bindings, so a steady-state test allocates nothing. Every pooled matcher
// has both core slices at -1 over their whole capacity: a search undoes
// each assignment on its way out, so nothing is ever cleared between
// targets or between patterns. The plan is not pooled — it comes from the
// pattern's memo cache (graph.MatchPlan) and is shared read-only.
var matcherPool = sync.Pool{New: func() any { return new(Matcher) }}

// Matcher is the VF2 search state with a pattern bound to it: the plan,
// the pattern's arrays and both core slices are set up once by Bind, and
// each Match pays only for its own target. Cache hit detection and the
// one-shot entry points bind, match once and release; the verification
// stage of a subgraph query binds the query and matches it against every
// candidate. A Matcher is a single-goroutine object.
type Matcher struct {
	pg, tg  *graph.Graph // for the edge-label maps only
	p, t    graph.CSR
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

// Bind returns a matcher for pattern p, every search bounded by opts.
// Release it when done.
func Bind(p *graph.Graph, opts Options) *Matcher {
	m := matcherPool.Get().(*Matcher)
	m.pg, m.p = p, p.CSR()
	m.plan = p.MatchPlan()
	m.pCore = growCore(m.pCore, p.N())
	m.opts = opts
	return m
}

// Release returns the matcher to the pool, dropping its graph references
// so pooled matchers never pin graphs.
func (m *Matcher) Release() {
	*m = Matcher{pCore: m.pCore, tCore: m.tCore}
	matcherPool.Put(m)
}

// growCore returns s at length n. A slice that has to grow is replaced by
// one filled with -1; one that does not already holds -1 everywhere.
func growCore(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	s = make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// Match reports whether the bound pattern is subgraph-isomorphic to t,
// with the statistics of this one search. On an aborted search the boolean
// is false and Stats.Aborted is set. Only directedness and size are
// screened first: the caller is expected to have filtered its targets.
//
//gclint:noalloc
func (m *Matcher) Match(t *graph.Graph) (bool, Stats) {
	if len(m.plan) == 0 {
		return true, Stats{} // the empty pattern embeds everywhere
	}
	if m.pg.Directed() != t.Directed() || m.pg.N() > t.N() || m.pg.M() > t.M() {
		return false, Stats{}
	}
	m.setTarget(t)
	ok := m.match(0) && !m.aborted
	st := m.st
	st.Aborted = m.aborted
	return ok, st
}

// setTarget points the matcher at t for one search.
//
//gclint:noalloc
func (m *Matcher) setTarget(t *graph.Graph) {
	m.tg, m.t = t, t.CSR()
	m.elabels = m.pg.HasEdgeLabels() || t.HasEdgeLabels()
	m.tCore = growCore(m.tCore, t.N())
	m.st = Stats{}
	m.aborted = false
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
	m := Bind(p, opts)
	ok, st := m.Match(t)
	m.Release()
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
	m := Bind(p, Options{})
	defer m.Release()
	m.setTarget(t)
	m.capture = true
	if !m.match(0) {
		return nil
	}
	out := make([]int, p.N())
	for i, v := range m.pCore {
		out[i] = int(v)
		m.pCore[i], m.tCore[v] = -1, -1 // what a search that keeps nothing undoes itself
	}
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
	m := Bind(p, Options{})
	defer m.Release()
	m.setTarget(t)
	m.count = true
	m.limit = limit
	m.match(0)
	return m.found
}

// match extends the partial mapping at the given depth of the plan. It
// returns true when the search can stop (a match was found in decision
// mode, or the enumeration limit was reached in counting mode).
//
//gclint:noalloc
func (m *Matcher) match(depth int) bool {
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
	// way screened by label and injectivity before the feasibility rules,
	// the first of which — tv's neighbourhood must carry the labels pu's
	// does — is cheap enough to sit here, ahead of the call.
	step := m.plan[depth]
	label, sig := m.p.Labels[step.V], m.p.Sig[step.V]
	tLabels, tSig := m.t.Labels, m.t.Sig
	var cands []int32
	n := len(tLabels)
	if step.Anchor >= 0 {
		row := int(m.pCore[step.Anchor>>1])
		if step.Anchor&1 != 0 {
			row += m.t.In
		}
		cands = m.t.Nbr[m.t.Off[row]:m.t.Off[row+1]]
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
		if !graph.SigDominates(tSig[tv], sig) || !m.feasible(step, tv) {
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

// feasible applies the rest of the VF2 feasibility rules for non-induced
// matching to a label- and signature-screened, unmatched tv: degree
// sufficiency, consistency (direction- and edge-label-aware) with all
// matched pattern neighbors, and a one-step lookahead comparing
// unmatched-neighbor counts per direction. The anchor arc exists by
// construction of the candidate list, so only its edge label is tested.
//
//gclint:noalloc
func (m *Matcher) feasible(step graph.PlanStep, tv int32) bool {
	p, t := &m.p, &m.t
	pu := int(step.V)
	pOut, tOut := p.Nbr[p.Off[pu]:p.Off[pu+1]], t.Nbr[t.Off[tv]:t.Off[tv+1]]
	if len(tOut) < len(pOut) {
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
		if !(pn == anchor && anchorOut) && !graph.Contains(tOut, img) {
			return false
		}
		if m.elabels && m.pg.EdgeLabel(pu, int(pn)) != m.tg.EdgeLabel(int(tv), int(img)) {
			return false
		}
	}
	// Lookahead: tv needs at least as many unmatched out-/in-neighbors as
	// pu has pending in each direction.
	if !m.available(tOut, pending) {
		return false
	}
	if p.In == 0 {
		return true // undirected: the in-rows are the out-rows
	}
	pIn, tIn := p.Row(p.In+pu), t.Row(t.In+int(tv))
	if len(tIn) < len(pIn) || !graph.SigDominates(t.Sig[t.In+int(tv)], p.Sig[p.In+pu]) {
		return false
	}
	pending = 0
	for _, pn := range pIn {
		img := m.pCore[pn]
		if img < 0 {
			pending++
			continue
		}
		if !(pn == anchor && !anchorOut) && !graph.Contains(tIn, img) {
			return false
		}
		if m.elabels && m.pg.EdgeLabel(int(pn), pu) != m.tg.EdgeLabel(int(img), int(tv)) {
			return false
		}
	}
	return m.available(tIn, pending)
}

// available reports whether at least need of the target vertices in
// list are still unmatched.
//
//gclint:noalloc
func (m *Matcher) available(list []int32, need int) bool {
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
