package bitset

import "math/bits"

// Container break-even, in elements. The dense payload costs
// 8·⌈n/64⌉ ≈ n/8 bytes; a sparse element costs 4 bytes. The floor keeps
// tiny capacities from migrating on their first bits.

// sparseMax is the population ceiling of the sparse container for
// capacity n: above n/32 elements, 4-byte indices cost more than the
// dense words would.
func sparseMax(n int) int {
	return max(16, n/32)
}

// shrinkDense downgrades a dense set whose population (just computed by a
// fused And/AndNot word loop) sits at half the sparse break-even or less.
// The hysteresis gap keeps sets oscillating around the threshold from
// churning between containers.
func (s *Set) shrinkDense(count int) {
	if fits32(s.n) && count*2 <= sparseMax(s.n) {
		s.toSparse(count)
	}
}

// toDense re-encodes the set as dense words.
func (s *Set) toDense() {
	if s.mode == modeSparse {
		w := make([]uint64, (s.n+wordBits-1)/wordBits)
		for _, v := range s.sparse {
			w[v/wordBits] |= 1 << (v % wordBits)
		}
		s.words, s.sparse, s.mode = w, nil, modeDense
		return
	}
	s.materialize()
}

// toSparse re-encodes a dense set holding count bits as sparse. The
// caller guarantees count is the exact population.
func (s *Set) toSparse(count int) {
	if s.mode == modeSparse {
		return
	}
	out := make([]uint32, 0, count)
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, uint32(wi*wordBits+b))
			w &= w - 1
		}
	}
	s.words, s.sparse, s.mode = nil, out, modeSparse
}

// Compact re-encodes the set in its smaller container: whichever of
// sparse (4 B/bit) or dense (8 B/word) costs fewer payload bytes for the
// current contents. Publication points — entry admission, removals,
// persistence restore — call it so every long-lived set pays the minimal
// footprint; scratch sets skip it and keep their mutation-friendly
// container. Contents are unchanged.
func (s *Set) Compact() {
	if !fits32(s.n) {
		return
	}
	count := s.Count()
	if count == 0 {
		s.words, s.sparse, s.mode = nil, nil, modeSparse
		return
	}
	if 4*count <= 8*((s.n+wordBits-1)/wordBits) {
		s.toSparse(count)
	} else {
		s.toDense()
	}
}

// searchU32 returns the first index j with a[j] >= v (len(a) if none).
func searchU32(a []uint32, v uint32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
