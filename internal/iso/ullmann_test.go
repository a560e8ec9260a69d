package iso

import (
	"math/bits"

	"graphcache/internal/graph"
)

// Ullmann reports whether p ⊑ t (non-induced) using Ullmann's algorithm
// with bitset candidate rows and arc-consistency refinement. It shares no
// code with VF2, which makes it the tests' independent second opinion.
func Ullmann(p, t *graph.Graph, opts Options) (bool, Stats) {
	var st Stats
	if p.N() == 0 {
		return true, st
	}
	if p.Directed() != t.Directed() || p.N() > t.N() || p.M() > t.M() {
		return false, st
	}

	np, nt := p.N(), t.N()
	words := (nt + 63) / 64
	// cand[pu] is a bitset over target vertices compatible with pu.
	cand := make([][]uint64, np)
	backing := make([]uint64, np*words)
	for pu := 0; pu < np; pu++ {
		cand[pu] = backing[pu*words : (pu+1)*words]
		for tv := 0; tv < nt; tv++ {
			if p.Label(pu) == t.Label(tv) &&
				t.OutDegree(tv) >= p.OutDegree(pu) && t.InDegree(tv) >= p.InDegree(pu) {
				cand[pu][tv/64] |= 1 << (uint(tv) % 64)
			}
		}
	}

	u := &ullmannState{
		p:          p,
		t:          t,
		words:      words,
		cand:       cand,
		assignment: make([]int32, np),
		opts:       opts,
	}
	if !u.refineAll() {
		return false, st
	}
	used := make([]uint64, words)
	ok := u.search(0, used, &st)
	st.Aborted = u.aborted
	return ok && !u.aborted, st
}

type ullmannState struct {
	p, t       *graph.Graph
	words      int
	cand       [][]uint64
	assignment []int32 // assignment[pv] = image of pattern vertex pv (valid for pv < current depth)
	opts       Options
	aborted    bool
}

// refineAll applies the Ullmann refinement to a fixpoint: a candidate tv
// for pu survives only if every neighbor of pu has at least one candidate
// among tv's neighbors. Returns false if some row empties (no embedding).
func (u *ullmannState) refineAll() bool {
	changed := true
	for changed {
		changed = false
		for pu := 0; pu < u.p.N(); pu++ {
			for wi := 0; wi < u.words; wi++ {
				w := u.cand[pu][wi]
				for w != 0 {
					b := bits.TrailingZeros64(w)
					w &= w - 1
					tv := wi*64 + b
					if !u.supported(pu, tv) {
						u.cand[pu][wi] &^= 1 << uint(b)
						changed = true
					}
				}
			}
			if rowEmpty(u.cand[pu]) {
				return false
			}
		}
	}
	return true
}

// supported reports whether mapping pu → tv survives one round of arc
// consistency: every pattern neighbor of pu (per direction, with matching
// edge label) needs a candidate among tv's corresponding neighbors.
func (u *ullmannState) supported(pu, tv int) bool {
	for _, pn := range u.p.OutNeighbors(pu) {
		el := u.p.EdgeLabel(pu, int(pn))
		found := false
		for _, tn := range u.t.OutNeighbors(tv) {
			if u.cand[pn][tn/64]&(1<<(uint(tn)%64)) != 0 && u.t.EdgeLabel(tv, int(tn)) == el {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if !u.p.Directed() {
		return true
	}
	for _, pn := range u.p.InNeighbors(pu) {
		el := u.p.EdgeLabel(int(pn), pu)
		found := false
		for _, tn := range u.t.InNeighbors(tv) {
			if u.cand[pn][tn/64]&(1<<(uint(tn)%64)) != 0 && u.t.EdgeLabel(int(tn), tv) == el {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func rowEmpty(r []uint64) bool {
	for _, w := range r {
		if w != 0 {
			return false
		}
	}
	return true
}

// search assigns pattern vertices in index order, masking used target
// vertices and checking adjacency against already-assigned neighbors.
func (u *ullmannState) search(pu int, used []uint64, st *Stats) bool {
	if pu == u.p.N() {
		return true
	}
	st.Recursions++
	if u.opts.MaxRecursions > 0 && st.Recursions > u.opts.MaxRecursions {
		u.aborted = true
		return false
	}
	for wi := 0; wi < u.words; wi++ {
		w := u.cand[pu][wi] &^ used[wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			tv := wi*64 + b
			st.Candidates++
			if !u.consistent(pu, tv) {
				continue
			}
			used[wi] |= 1 << uint(b)
			u.assignment[pu] = int32(tv)
			if u.search(pu+1, used, st) {
				return true
			}
			if u.aborted {
				return false
			}
			used[wi] &^= 1 << uint(b)
		}
	}
	return false
}

// consistent checks that tv respects direction and edge labels against the
// images of all already-assigned neighbors of pu.
func (u *ullmannState) consistent(pu, tv int) bool {
	for _, pn := range u.p.OutNeighbors(pu) {
		if int(pn) >= pu {
			continue
		}
		img := int(u.assignment[pn])
		if !u.t.HasEdge(tv, img) || u.t.EdgeLabel(tv, img) != u.p.EdgeLabel(pu, int(pn)) {
			return false
		}
	}
	if !u.p.Directed() {
		return true
	}
	for _, pn := range u.p.InNeighbors(pu) {
		if int(pn) >= pu {
			continue
		}
		img := int(u.assignment[pn])
		if !u.t.HasEdge(img, tv) || u.t.EdgeLabel(img, tv) != u.p.EdgeLabel(int(pn), pu) {
			return false
		}
	}
	return true
}
