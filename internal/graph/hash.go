package graph

import (
	"slices"
)

// Fingerprint is an isomorphism-invariant 64-bit digest of a graph.
// Isomorphic graphs always produce equal fingerprints; unequal fingerprints
// therefore prove non-isomorphism. Equal fingerprints do NOT prove
// isomorphism — the cache's exact-match detector uses the fingerprint only
// as a pre-filter before a verifying iso test.
type Fingerprint uint64

// FNV-1a constants, inlined so color refinement hashes into a stack
// uint64 instead of allocating a hash.Hash64 per vertex per round. The
// digests are byte-for-byte identical to hashing the values through
// hash/fnv in little-endian order.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix64 folds the eight little-endian bytes of v into the running
// FNV-1a state h.
func fnvMix64(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h ^= (v >> i) & 0xff
		h *= fnvPrime64
	}
	return h
}

// WLFingerprint computes a Weisfeiler–Lehman style fingerprint: vertex
// colors start as labels and are iteratively refined with the sorted
// multiset of neighbor colors for rounds iterations (3 is plenty for the
// small query/molecule graphs GraphCache handles). The digest hashes the
// sorted final color multiset together with |V| and |E|. Directedness and
// edge labels participate in the refinement, so the invariance extends to
// the generalized graph types.
//
// The fingerprint for the most recently requested round count is memoized
// on the (immutable) graph, so re-executing a query graph pays the O(n·d)
// refinement only once.
func (g *Graph) WLFingerprint(rounds int) Fingerprint {
	if m := g.memoFP.Load(); m != nil && m.rounds == rounds {
		return m.fp
	}
	fp := g.wlFingerprint(rounds)
	g.memoFP.Store(&fpMemo{rounds: rounds, fp: fp})
	return fp
}

func (g *Graph) wlFingerprint(rounds int) Fingerprint {
	n := g.N()
	colors := make([]uint64, n)
	for v, l := range g.Labels() {
		colors[v] = uint64(l) + 1
	}
	next := make([]uint64, n)
	neigh := make([]uint64, 0, 16)
	const mix = 0x9E3779B97F4A7C15
	for r := 0; r < rounds; r++ {
		for v := 0; v < n; v++ {
			neigh = neigh[:0]
			for _, w := range g.OutNeighbors(v) {
				e := colors[w]*mix ^ uint64(g.EdgeLabel(v, int(w)))<<1
				neigh = append(neigh, e)
			}
			if g.directed {
				for _, w := range g.InNeighbors(v) {
					e := colors[w]*mix ^ uint64(g.EdgeLabel(int(w), v))<<1 ^ 1<<63
					neigh = append(neigh, e)
				}
			}
			slices.Sort(neigh)
			h := uint64(fnvOffset64)
			h = fnvMix64(h, colors[v])
			for _, c := range neigh {
				h = fnvMix64(h, c)
			}
			next[v] = h
		}
		colors, next = next, colors
	}
	final := make([]uint64, n)
	copy(final, colors)
	slices.Sort(final)

	h := uint64(fnvOffset64)
	h = fnvMix64(h, uint64(n))
	h = fnvMix64(h, uint64(g.m))
	for _, c := range final {
		h = fnvMix64(h, c)
	}
	return Fingerprint(h)
}
