package bitset

import "math/bits"

// Container break-evens, in elements. The dense payload costs
// 8·⌈n/64⌉ ≈ n/8 bytes; a sparse element costs 4 bytes, a run span 8.
// The floors keep tiny capacities from migrating on their first bits.

// sparseMax is the population ceiling of the sparse container for
// capacity n: above n/32 elements, 4-byte indices cost more than the
// dense words would.
func sparseMax(n int) int {
	return max(16, n/32)
}

// runMax is the span-count ceiling of the run container for capacity n:
// above n/64 spans, 8-byte spans cost more than the dense words would.
func runMax(n int) int {
	return max(4, n/64)
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

// toDense re-encodes any container as dense words.
func (s *Set) toDense() {
	switch s.mode {
	case modeSparse:
		w := make([]uint64, (s.n+wordBits-1)/wordBits)
		for _, v := range s.sparse {
			w[v/wordBits] |= 1 << (v % wordBits)
		}
		s.words, s.sparse, s.mode = w, nil, modeDense
	case modeRun:
		w := make([]uint64, (s.n+wordBits-1)/wordBits)
		for _, r := range s.runs {
			fillRange(w, r.start, r.end)
		}
		s.words, s.runs, s.mode = w, nil, modeDense
	default:
		s.materialize()
	}
}

// toSparse re-encodes a dense or run set holding count bits as sparse.
// The caller guarantees count is the exact population.
func (s *Set) toSparse(count int) {
	if s.mode == modeSparse {
		return
	}
	out := make([]uint32, 0, count)
	switch s.mode {
	case modeRun:
		for _, r := range s.runs {
			for v := r.start; v < r.end; v++ {
				out = append(out, v)
			}
		}
		s.runs = nil
	default:
		for wi, w := range s.words {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				out = append(out, uint32(wi*wordBits+b))
				w &= w - 1
			}
		}
		s.words = nil
	}
	s.sparse, s.mode = out, modeSparse
}

// toRun re-encodes a dense or sparse set with nruns maximal runs as the
// run container. The caller guarantees nruns > 0 and within runMax-ish
// bounds it considers acceptable (Compact computes it exactly).
func (s *Set) toRun(nruns int) {
	if s.mode == modeRun {
		return
	}
	out := make([]span, 0, nruns)
	switch s.mode {
	case modeSparse:
		for _, v := range s.sparse {
			if k := len(out); k > 0 && out[k-1].end == v {
				out[k-1].end = v + 1
			} else {
				out = append(out, span{v, v + 1})
			}
		}
		s.sparse = nil
	default:
		for wi, w := range s.words {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				v := uint32(wi*wordBits + b)
				if k := len(out); k > 0 && out[k-1].end == v {
					out[k-1].end = v + 1
				} else {
					out = append(out, span{v, v + 1})
				}
				w &= w - 1
			}
		}
		s.words = nil
	}
	if len(out) == 0 {
		s.runs, s.mode = nil, modeSparse
		return
	}
	s.runs, s.mode = out, modeRun
}

// normRuns restores the run-container invariants after a span-algebra
// operation: an empty result collapses to the empty sparse set, and a
// result past the span break-even migrates to dense.
func (s *Set) normRuns() {
	if len(s.runs) == 0 {
		s.runs, s.mode = nil, modeSparse
		return
	}
	s.mode = modeRun
	s.words, s.sparse = nil, nil
	if len(s.runs) > runMax(s.n) {
		s.toDense()
	}
}

// Compact re-encodes the set in its smallest container: whichever of
// sparse (4 B/bit), run (8 B/span) or dense (8 B/word) costs the fewest
// payload bytes for the current contents. Publication points — entry
// admission, removals, persistence restore — call it so every
// long-lived set pays the minimal footprint; scratch sets skip it and
// keep their mutation-friendly container. Contents are unchanged.
//
//gclint:mutates
func (s *Set) Compact() {
	if !fits32(s.n) {
		return
	}
	count, nruns := s.shape()
	if count == 0 {
		s.words, s.sparse, s.runs, s.mode = nil, nil, nil, modeSparse
		return
	}
	denseB := 8 * ((s.n + wordBits - 1) / wordBits)
	sparseB := 4 * count
	runB := 8 * nruns
	switch {
	case runB <= sparseB && runB <= denseB:
		s.toRun(nruns)
	case sparseB <= denseB:
		s.toSparse(count)
	default:
		s.toDense()
	}
}

// shape returns the population and the number of maximal runs of set
// bits in one pass over the active container.
func (s *Set) shape() (count, nruns int) {
	switch s.mode {
	case modeSparse:
		count = len(s.sparse)
		for i, v := range s.sparse {
			if i == 0 || s.sparse[i-1]+1 != v {
				nruns++
			}
		}
	case modeRun:
		nruns = len(s.runs)
		for _, r := range s.runs {
			count += int(r.end - r.start)
		}
	default:
		prev := false
		for _, w := range s.words {
			count += bits.OnesCount64(w)
			starts := w &^ (w << 1)
			if prev {
				starts &^= 1
			}
			nruns += bits.OnesCount64(starts)
			prev = w>>63 == 1
		}
	}
	return count, nruns
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

// searchRuns returns the first span index j with rs[j].end > v (len(rs)
// if none) — the only span that could contain v.
func searchRuns(rs []span, v uint32) int {
	lo, hi := 0, len(rs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rs[mid].end <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// fillRange sets bits [start, end) in a dense word array.
func fillRange(w []uint64, start, end uint32) {
	if start >= end {
		return
	}
	sw, ew := int(start/wordBits), int((end-1)/wordBits)
	sm := ^uint64(0) << (start % wordBits)
	em := ^uint64(0) >> (wordBits - 1 - (end-1)%wordBits)
	if sw == ew {
		w[sw] |= sm & em
		return
	}
	w[sw] |= sm
	for i := sw + 1; i < ew; i++ {
		w[i] = ^uint64(0)
	}
	w[ew] |= em
}

// zeroRange clears bits [start, end) in a dense word array.
func zeroRange(w []uint64, start, end uint32) {
	if start >= end {
		return
	}
	sw, ew := int(start/wordBits), int((end-1)/wordBits)
	sm := ^uint64(0) << (start % wordBits)
	em := ^uint64(0) >> (wordBits - 1 - (end-1)%wordBits)
	if sw == ew {
		w[sw] &^= sm & em
		return
	}
	w[sw] &^= sm
	for i := sw + 1; i < ew; i++ {
		w[i] = 0
	}
	w[ew] &^= em
}

// intersectRuns returns a ∩ b as a fresh normalized span list.
func intersectRuns(a, b []span) []span {
	var out []span
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := max(a[i].start, b[j].start)
		hi := min(a[i].end, b[j].end)
		if lo < hi {
			out = append(out, span{lo, hi})
		}
		if a[i].end < b[j].end {
			i++
		} else {
			j++
		}
	}
	return out
}

// subtractRuns returns a \ b as a fresh normalized span list.
func subtractRuns(a, b []span) []span {
	var out []span
	j := 0
	for _, r := range a {
		lo := r.start
		for j < len(b) && b[j].end <= lo {
			j++
		}
		for jj := j; lo < r.end && jj < len(b) && b[jj].start < r.end; jj++ {
			if b[jj].start > lo {
				out = append(out, span{lo, b[jj].start})
			}
			if b[jj].end > lo {
				lo = b[jj].end
			}
		}
		if lo < r.end {
			out = append(out, span{lo, r.end})
		}
	}
	return out
}

// unionRuns returns a ∪ b as a fresh normalized span list, coalescing
// overlapping and adjacent spans.
func unionRuns(a, b []span) []span {
	out := make([]span, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var r span
		if j >= len(b) || (i < len(a) && a[i].start <= b[j].start) {
			r = a[i]
			i++
		} else {
			r = b[j]
			j++
		}
		if k := len(out); k > 0 && out[k-1].end >= r.start {
			if r.end > out[k-1].end {
				out[k-1].end = r.end
			}
		} else {
			out = append(out, r)
		}
	}
	return out
}
