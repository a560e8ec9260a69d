package bitset

import "math/bits"

// Binary operations, specialized per container pair. Dense×dense keeps
// the word-parallel loops (with the population count fused in where a
// downgrade decision rides on it); every pair involving a sparse set
// routes through the cursor/prober machinery so the cost is O(sparse
// payload), never O(capacity).

// quickEmpty reports emptiness without scanning dense words: a nil word
// slice is the lazy all-clear dense set; a materialized-but-zero dense
// set answers false, which only costs the fast path, never correctness.
func (s *Set) quickEmpty() bool {
	switch s.mode {
	case modeSparse:
		return len(s.sparse) == 0
	default:
		return s.words == nil
	}
}

// becomeCopyOf overwrites s with a deep copy of o's contents.
func (s *Set) becomeCopyOf(o *Set) {
	s.mode = o.mode
	s.words, s.sparse = nil, nil
	switch o.mode {
	case modeSparse:
		if len(o.sparse) > 0 {
			s.sparse = make([]uint32, len(o.sparse))
			copy(s.sparse, o.sparse)
		}
	default:
		if o.words != nil {
			s.words = make([]uint64, len(o.words))
			copy(s.words, o.words)
		}
	}
}

// And intersects s with o in place (s ∩= o).
func (s *Set) And(o *Set) {
	s.sameCap(o)
	if s.quickEmpty() {
		return
	}
	if o.quickEmpty() {
		s.Clear()
		return
	}
	switch {
	case s.mode == modeSparse:
		p := prober{s: o}
		k := 0
		for _, v := range s.sparse {
			if p.contains(int(v)) {
				s.sparse[k] = v
				k++
			}
		}
		s.sparse = s.sparse[:k]
	case o.mode == modeDense:
		c := 0
		for i := range s.words {
			s.words[i] &= o.words[i]
			c += bits.OnesCount64(s.words[i])
		}
		s.shrinkDense(c)
	default:
		// The result is a subset of o, so it lands sparse.
		out := make([]uint32, 0, len(o.sparse))
		for _, v := range o.sparse {
			if s.words[v/wordBits]&(1<<(v%wordBits)) != 0 {
				out = append(out, v)
			}
		}
		s.words, s.sparse, s.mode = nil, out, modeSparse
	}
}

// AndNot removes o's bits from s in place (s \= o).
func (s *Set) AndNot(o *Set) {
	s.sameCap(o)
	if s.quickEmpty() || o.quickEmpty() {
		return
	}
	switch {
	case s.mode == modeSparse:
		p := prober{s: o}
		k := 0
		for _, v := range s.sparse {
			if !p.contains(int(v)) {
				s.sparse[k] = v
				k++
			}
		}
		s.sparse = s.sparse[:k]
	case o.mode == modeDense:
		c := 0
		for i := range s.words {
			s.words[i] &^= o.words[i]
			c += bits.OnesCount64(s.words[i])
		}
		s.shrinkDense(c)
	default:
		for _, v := range o.sparse {
			s.words[v/wordBits] &^= 1 << (v % wordBits)
		}
	}
}

// Or unions o into s in place (s ∪= o).
func (s *Set) Or(o *Set) {
	s.sameCap(o)
	if o.quickEmpty() {
		return
	}
	if s.quickEmpty() {
		s.becomeCopyOf(o)
		return
	}
	if s.mode == modeSparse {
		if o.mode == modeSparse {
			s.sparse = mergeU32(s.sparse, o.sparse)
			if len(s.sparse) > sparseMax(s.n) {
				s.toDense()
			}
			return
		}
		s.toDense()
	}
	if o.mode == modeSparse {
		for _, v := range o.sparse {
			s.words[v/wordBits] |= 1 << (v % wordBits)
		}
		return
	}
	for i := range s.words {
		s.words[i] |= o.words[i]
	}
}

// mergeU32 returns the sorted union of two sorted unique slices.
func mergeU32(a, b []uint32) []uint32 {
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Equal reports whether s and o have identical capacity and bits,
// whatever containers currently hold them.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	if s.mode == modeDense && o.mode == modeDense {
		if s.words == nil {
			return o.Empty()
		}
		if o.words == nil {
			return s.Empty()
		}
		for i := range s.words {
			if s.words[i] != o.words[i] {
				return false
			}
		}
		return true
	}
	var ca, cb cursor
	ca.init(s)
	cb.init(o)
	for {
		va, oka := ca.next()
		vb, okb := cb.next()
		if oka != okb {
			return false
		}
		if !oka {
			return true
		}
		if va != vb {
			return false
		}
	}
}

// ForEach calls fn for every set bit in ascending order. If fn returns
// false iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	switch s.mode {
	case modeSparse:
		for _, v := range s.sparse {
			if !fn(int(v)) {
				return
			}
		}
	default:
		for wi, w := range s.words {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				if !fn(wi*wordBits + b) {
					return
				}
				w &= w - 1
			}
		}
	}
}

// ForEachAnd calls fn for every bit set in both s and o (s ∩ o) in
// ascending order, without allocating an intermediate set. If fn returns
// false iteration stops early.
func (s *Set) ForEachAnd(o *Set, fn func(i int) bool) {
	s.sameCap(o)
	if s.mode == modeDense && o.mode == modeDense {
		if s.words == nil || o.words == nil {
			return
		}
		for wi := range s.words {
			w := s.words[wi] & o.words[wi]
			for w != 0 {
				b := bits.TrailingZeros64(w)
				if !fn(wi*wordBits + b) {
					return
				}
				w &= w - 1
			}
		}
		return
	}
	a, b := s, o
	if o.mode == modeSparse { // iterate the sparse operand, probe the other
		a, b = o, s
	}
	var cur cursor
	cur.init(a)
	p := prober{s: b}
	for i, ok := cur.next(); ok; i, ok = cur.next() {
		if p.contains(i) && !fn(i) {
			return
		}
	}
}

// ForEachAndNot calls fn for every bit set in s but not in o (s \ o) in
// ascending order, without allocating an intermediate set. If fn returns
// false iteration stops early.
func (s *Set) ForEachAndNot(o *Set, fn func(i int) bool) {
	s.sameCap(o)
	if s.mode == modeDense && o.mode == modeDense {
		if s.words == nil {
			return
		}
		if o.words == nil {
			s.ForEach(fn)
			return
		}
		for wi := range s.words {
			w := s.words[wi] &^ o.words[wi]
			for w != 0 {
				b := bits.TrailingZeros64(w)
				if !fn(wi*wordBits + b) {
					return
				}
				w &= w - 1
			}
		}
		return
	}
	var cur cursor
	cur.init(s)
	p := prober{s: o}
	for i, ok := cur.next(); ok; i, ok = cur.next() {
		if !p.contains(i) {
			if !fn(i) {
				return
			}
		}
	}
}
