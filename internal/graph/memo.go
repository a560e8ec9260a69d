package graph

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Memoized derived summaries.
//
// Graphs are immutable after Build, so summaries that depend only on the
// structure — the matcher's plan, the WL fingerprint, the feature vector
// — can be computed once and shared by every reader. The subgraph-isomorphism hot path
// recomputed these on every invocation, which made them the dominant
// allocation sites of query execution; the memoized accessors below make
// every invocation after the first allocation-free.
//
// Each summary sits behind its own atomic pointer so a dataset graph that
// is only ever a verification *target* never pays for the pattern-side
// match plan. The plan is what a graph keeps longest — supergraph
// verification binds every dataset graph it tests as a pattern — so it is
// packed: one allocation of 2 bytes a step (8 on graphs of 128 vertices
// or more), its length implied by N, no slice header. Two goroutines
// racing on a first plan may both compute it, but only the first to
// publish wins and both return its bytes; a fingerprint race keeps
// whichever lands last, the values being identical, and so does a race
// on the first feature vector. Callers must treat every returned slice
// and map as read-only.

// PlanStep is one depth of a match plan: the pattern vertex V matched
// there and its anchor, the earliest-ordered neighbour of V. Anchor is -1
// for the first vertex of a component; otherwise it is a<<1|out, where
// out=1 says the arc V→a exists (always, when undirected), so V's
// candidates are the in-neighbours of a's image, and out=0 that only a→V
// does, so they are its out-neighbours.
type PlanStep struct {
	V, Anchor int32
}

// Plan is a graph's match plan as it is memoized: the packed steps and
// their width. A graph of fewer than narrowPlan vertices stores a step in
// 2 bytes, the vertex and then Anchor+1 (at most 2·126+1+1 = 254);
// a larger one in two int32s. Plans of one graph compare equal.
type Plan struct {
	b    *byte // the first step; nil when there are none
	n    int
	wide bool
}

// narrowPlan is the vertex count from which a plan takes 8 bytes a step.
const narrowPlan = 128

// Len returns the number of steps, the graph's vertex count.
func (p Plan) Len() int { return p.n }

// Step decodes step i, which must be below Len: the matcher reads one
// step per depth in place rather than unpacking the plan per binding.
func (p Plan) Step(i int) PlanStep {
	if !p.wide {
		s := (*[2]byte)(unsafe.Add(unsafe.Pointer(p.b), 2*i))
		return PlanStep{int32(s[0]), int32(s[1]) - 1}
	}
	s := (*[2]int32)(unsafe.Add(unsafe.Pointer(p.b), 8*i))
	return PlanStep{s[0], s[1]}
}

// put encodes step i.
func (p Plan) put(i int, s PlanStep) {
	if !p.wide {
		d := (*[2]byte)(unsafe.Add(unsafe.Pointer(p.b), 2*i))
		d[0], d[1] = byte(s.V), byte(s.Anchor+1)
		return
	}
	*(*[2]int32)(unsafe.Add(unsafe.Pointer(p.b), 8*i)) = [2]int32{s.V, s.Anchor}
}

// planOf returns the plan of an n-vertex graph whose packed steps start
// at b.
func planOf(b *byte, n int) Plan { return Plan{b, n, n >= narrowPlan} }

// newPlan allocates the packed steps of an n-vertex graph: the one
// allocation a graph's first plan makes.
func newPlan(n int) Plan {
	p := planOf(nil, n)
	switch {
	case p.wide:
		p.b = (*byte)(unsafe.Pointer(unsafe.SliceData(make([]int32, 2*n))))
	case n > 0:
		p.b = unsafe.SliceData(make([]byte, 2*n))
	}
	return p
}

// MatchPlan returns the pattern-side search plan of the isomorphism
// matcher, a function of the graph alone. The next vertex is always the
// one with the most already-ordered neighbours (either direction), then
// the label rarest in the graph, then the highest degree, then the lowest
// id. So the plan roots at a rarest-label vertex, where a target has the
// fewest candidates, grows connected (weakly, for directed graphs), and
// starts a further component at its rarest label again. It is built in
// one pass over pooled scratch: the last three keys are fixed per vertex
// once, and each step picks the best of the frontier (the unordered
// vertices with an ordered neighbour) or, when that is empty, the best
// unordered vertex. The result is memoized on the graph.
func (g *Graph) MatchPlan() Plan {
	p := planOf(g.memoPlan.Load(), g.N())
	if p.b != nil || p.n == 0 {
		return p
	}
	p = newPlan(p.n)
	s := planPool.Get().(*planScratch)
	s.plan(g, p)
	planPool.Put(s)
	if !g.memoPlan.CompareAndSwap(nil, p.b) {
		p.b = g.memoPlan.Load()
	}
	return p
}

// planScratch is MatchPlan's working memory, pooled so that a first plan
// allocates only its packed steps: three columns of n int32s and one of
// n keys (see plan), and counts, which tallies labels below len(counts)
// and is all zero between uses.
type planScratch struct {
	cols   []int32
	keys   []uint64
	counts [256]int32
}

var planPool = sync.Pool{New: func() any { return new(planScratch) }}

// plan writes g's plan into p. Each step scans the frontier, and a step
// that finds it empty scans every vertex for the next root, so a plan
// costs O(m + n·(frontier + components)): at worst, on a graph of n
// components, one full scan a step, which the selection it replaced
// made on every graph.
func (s *planScratch) plan(g *Graph, p Plan) {
	n := g.N()
	if cap(s.cols) < 3*n {
		s.cols = make([]int32, 3*n)
		s.keys = make([]uint64, n)
	}
	// conn is a vertex's number of ordered neighbours, -1 once ordered
	// itself; anchor is as in PlanStep, and holds the vertex's label
	// count until the keys are made; front lists the frontier. key is
	// the label count, then the complement of the out+in degree: the
	// lower key, then the lower id, ranks first.
	conn, anchor, front, key := s.cols[:n], s.cols[n:2*n], s.cols[2*n:2*n:3*n], s.keys[:n]
	c := g.CSR()
	s.rarity(c.Labels, anchor, conn)
	off, in := c.Off, c.In
	for v := range key {
		deg := off[v+1] - off[v] + off[in+v+1] - off[in+v]
		key[v] = uint64(anchor[v])<<32 | uint64(^uint32(deg))
		conn[v], anchor[v] = 0, -1
	}
	// touch counts a newly ordered vertex towards its neighbours in list
	// and becomes the anchor of those it is the first to reach.
	touch := func(list []uint16, a int32) {
		for _, w := range list {
			if anchor[w] < 0 {
				anchor[w] = a
			}
			if conn[w] == 0 {
				front = append(front, int32(w))
			}
			if conn[w] >= 0 {
				conn[w]++
			}
		}
	}
	for i := 0; i < n; i++ {
		best, at := int32(-1), 0
		for j, w := range front {
			if best < 0 || conn[w] > conn[best] || conn[w] == conn[best] && (key[w] < key[best] || key[w] == key[best] && w < best) {
				best, at = w, j
			}
		}
		if best >= 0 {
			front[at] = front[len(front)-1]
			front = front[:len(front)-1]
		} else {
			for v := range key {
				if conn[v] == 0 && (best < 0 || key[v] < key[best]) {
					best = int32(v)
				}
			}
		}
		p.put(i, PlanStep{best, anchor[best]})
		conn[best] = -1
		touch(g.InNeighbors(int(best)), best<<1|1) // arcs w→best
		if g.directed {
			touch(g.OutNeighbors(int(best)), best<<1) // arcs best→w
		}
	}
}

// rarity sets rare[v] to the number of vertices that carry v's label.
// Labels below len(s.counts) are tallied there; any larger one sends the
// whole graph to a count by binary search over the labels sorted in
// sorted.
func (s *planScratch) rarity(labels []Label, rare, sorted []int32) {
	small := true
	for _, l := range labels {
		if int(l) >= len(s.counts) {
			small = false
			break
		}
		s.counts[l]++
	}
	if small {
		for v, l := range labels {
			rare[v] = s.counts[l]
		}
		for _, l := range labels {
			s.counts[l] = 0
		}
		return
	}
	clear(s.counts[:])
	for v, l := range labels {
		sorted[v] = int32(l)
	}
	slices.Sort(sorted)
	for v, l := range labels {
		lo, _ := slices.BinarySearch(sorted, int32(l))
		hi, _ := slices.BinarySearch(sorted, int32(l)+1)
		rare[v] = int32(hi - lo)
	}
}

// Features returns ExtractFeatures(g), memoized on the graph: the one
// allocation is the vector of a graph's first call. Catch-up screens each
// added dataset graph against every entry that reads it, so the vector is
// worth keeping; a query graph, screened once, takes ExtractFeatures.
func (g *Graph) Features() FeatureVector {
	if fv := g.memoFV.Load(); fv != nil {
		return *fv
	}
	fv := ExtractFeatures(g)
	g.memoFV.Store(&fv)
	return fv
}

// memoSet holds the three lazily-computed summary slots embedded in
// Graph. It is excluded from WithID's shallow copy semantics manually:
// atomic values must not be copied, so WithID re-shares the already
// computed pointers instead of copying the struct.
type memoSet struct {
	memoPlan atomic.Pointer[byte] // the packed steps, see Plan
	memoFP   atomic.Pointer[fpMemo]
	memoFV   atomic.Pointer[FeatureVector]
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
	m.memoFV.Store(src.memoFV.Load())
}
