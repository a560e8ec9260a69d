package bitset

import "math/bits"

// Binary operations, specialized per container pair. Dense×dense keeps
// the word-parallel loops (with the population count fused in where a
// downgrade decision rides on it); every pair involving a compact
// container routes through the cursor/prober machinery so the cost is
// O(set payloads), never O(capacity). Full-run operands short-circuit:
// x ∩ full = x and x ∪ full = full at any capacity.

// quickEmpty reports emptiness without scanning dense words: a nil word
// slice is the lazy all-clear dense set; a materialized-but-zero dense
// set answers false, which only costs the fast path, never correctness.
func (s *Set) quickEmpty() bool {
	switch s.mode {
	case modeSparse:
		return len(s.sparse) == 0
	case modeRun:
		return len(s.runs) == 0
	default:
		return s.words == nil
	}
}

// isFull reports whether the set is the single full span [0, n). Dense
// all-ones sets answer false — only the canonical run form is detected,
// which is what NewFull and SetAll produce.
func (s *Set) isFull() bool {
	return s.mode == modeRun && len(s.runs) == 1 &&
		s.runs[0].start == 0 && int(s.runs[0].end) == s.n
}

// iterRank orders containers by iteration cost: the compact containers
// visit only set bits, dense scans every word. Symmetric operations
// iterate the lower-ranked operand and probe the other.
func iterRank(s *Set) int {
	switch s.mode {
	case modeSparse:
		return 0
	case modeRun:
		return 1
	default:
		return 2
	}
}

// becomeCopyOf overwrites s with a deep copy of o's contents.
func (s *Set) becomeCopyOf(o *Set) {
	s.mode = o.mode
	s.words, s.sparse, s.runs = nil, nil, nil
	switch o.mode {
	case modeSparse:
		if len(o.sparse) > 0 {
			s.sparse = make([]uint32, len(o.sparse))
			copy(s.sparse, o.sparse)
		}
	case modeRun:
		s.runs = make([]span, len(o.runs))
		copy(s.runs, o.runs)
	default:
		if o.words != nil {
			s.words = make([]uint64, len(o.words))
			copy(s.words, o.words)
		}
	}
}

// And intersects s with o in place (s ∩= o).
//
//gclint:mutates
func (s *Set) And(o *Set) {
	s.sameCap(o)
	if s.quickEmpty() || o.isFull() {
		return
	}
	if o.quickEmpty() {
		s.Clear()
		return
	}
	if s.isFull() {
		s.becomeCopyOf(o)
		return
	}
	switch s.mode {
	case modeSparse:
		p := prober{s: o}
		k := 0
		for _, v := range s.sparse {
			if p.contains(int(v)) {
				s.sparse[k] = v
				k++
			}
		}
		s.sparse = s.sparse[:k]
	case modeRun:
		switch o.mode {
		case modeRun:
			s.runs = intersectRuns(s.runs, o.runs)
			s.normRuns()
		case modeSparse:
			// The result is a subset of o, so it lands sparse.
			out := make([]uint32, 0, len(o.sparse))
			p := prober{s: s}
			for _, v := range o.sparse {
				if p.contains(int(v)) {
					out = append(out, v)
				}
			}
			s.runs, s.sparse, s.mode = nil, out, modeSparse
		default:
			s.toDense()
			s.And(o)
		}
	default:
		switch o.mode {
		case modeDense:
			c := 0
			for i := range s.words {
				s.words[i] &= o.words[i]
				c += bits.OnesCount64(s.words[i])
			}
			s.shrinkDense(c)
		case modeSparse:
			out := make([]uint32, 0, len(o.sparse))
			for _, v := range o.sparse {
				if s.words[v/wordBits]&(1<<(v%wordBits)) != 0 {
					out = append(out, v)
				}
			}
			s.words, s.sparse, s.mode = nil, out, modeSparse
		default:
			// Zero the gaps between o's spans.
			prev := uint32(0)
			for _, r := range o.runs {
				zeroRange(s.words, prev, r.start)
				prev = r.end
			}
			zeroRange(s.words, prev, uint32(s.n))
		}
	}
}

// AndNot removes o's bits from s in place (s \= o).
//
//gclint:mutates
func (s *Set) AndNot(o *Set) {
	s.sameCap(o)
	if s.quickEmpty() || o.quickEmpty() {
		return
	}
	if o.isFull() {
		s.Clear()
		return
	}
	switch s.mode {
	case modeSparse:
		p := prober{s: o}
		k := 0
		for _, v := range s.sparse {
			if !p.contains(int(v)) {
				s.sparse[k] = v
				k++
			}
		}
		s.sparse = s.sparse[:k]
	case modeRun:
		switch o.mode {
		case modeSparse:
			// Each removal trims or splits one span; Remove re-dispatches
			// if a split migrates the receiver to dense mid-loop.
			for _, v := range o.sparse {
				s.Remove(int(v))
			}
		case modeRun:
			s.runs = subtractRuns(s.runs, o.runs)
			s.normRuns()
		default:
			s.toDense()
			s.AndNot(o)
		}
	default:
		switch o.mode {
		case modeDense:
			c := 0
			for i := range s.words {
				s.words[i] &^= o.words[i]
				c += bits.OnesCount64(s.words[i])
			}
			s.shrinkDense(c)
		case modeSparse:
			for _, v := range o.sparse {
				s.words[v/wordBits] &^= 1 << (v % wordBits)
			}
		default:
			for _, r := range o.runs {
				zeroRange(s.words, r.start, r.end)
			}
		}
	}
}

// Or unions o into s in place (s ∪= o).
//
//gclint:mutates
func (s *Set) Or(o *Set) {
	s.sameCap(o)
	if o.quickEmpty() || s.isFull() {
		return
	}
	if o.isFull() {
		s.SetAll()
		return
	}
	if s.quickEmpty() {
		s.becomeCopyOf(o)
		return
	}
	switch s.mode {
	case modeSparse:
		if o.mode == modeSparse {
			s.sparse = mergeU32(s.sparse, o.sparse)
			if len(s.sparse) > sparseMax(s.n) {
				s.toDense()
			}
			return
		}
		s.toDense()
		s.Or(o)
	case modeRun:
		if o.mode == modeRun {
			s.runs = unionRuns(s.runs, o.runs)
			s.normRuns()
			return
		}
		s.toDense()
		s.Or(o)
	default:
		switch o.mode {
		case modeSparse:
			for _, v := range o.sparse {
				s.words[v/wordBits] |= 1 << (v % wordBits)
			}
		case modeRun:
			for _, r := range o.runs {
				fillRange(s.words, r.start, r.end)
			}
		default:
			for i := range s.words {
				s.words[i] |= o.words[i]
			}
		}
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

// IntersectionCount returns |s ∩ o| without allocating.
func (s *Set) IntersectionCount(o *Set) int {
	s.sameCap(o)
	if s.mode == modeDense && o.mode == modeDense {
		if s.words == nil || o.words == nil {
			return 0
		}
		c := 0
		for i := range s.words {
			c += bits.OnesCount64(s.words[i] & o.words[i])
		}
		return c
	}
	a, b := s, o
	if iterRank(o) < iterRank(s) {
		a, b = o, s
	}
	var cur cursor
	cur.init(a)
	p := prober{s: b}
	c := 0
	for i, ok := cur.next(); ok; i, ok = cur.next() {
		if p.contains(i) {
			c++
		}
	}
	return c
}

// DifferenceCount returns |s \ o| without allocating.
func (s *Set) DifferenceCount(o *Set) int {
	s.sameCap(o)
	if s.mode == modeDense && o.mode == modeDense {
		if s.words == nil {
			return 0
		}
		if o.words == nil {
			return s.Count()
		}
		c := 0
		for i := range s.words {
			c += bits.OnesCount64(s.words[i] &^ o.words[i])
		}
		return c
	}
	var cur cursor
	cur.init(s)
	p := prober{s: o}
	c := 0
	for i, ok := cur.next(); ok; i, ok = cur.next() {
		if !p.contains(i) {
			c++
		}
	}
	return c
}

// SubsetOf reports whether every bit of s is also set in o.
func (s *Set) SubsetOf(o *Set) bool {
	s.sameCap(o)
	if o.isFull() {
		return true
	}
	if s.mode == modeDense && o.mode == modeDense {
		if s.words == nil {
			return true
		}
		if o.words == nil {
			return s.Empty()
		}
		for i := range s.words {
			if s.words[i]&^o.words[i] != 0 {
				return false
			}
		}
		return true
	}
	var cur cursor
	cur.init(s)
	p := prober{s: o}
	for i, ok := cur.next(); ok; i, ok = cur.next() {
		if !p.contains(i) {
			return false
		}
	}
	return true
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
	case modeRun:
		for _, r := range s.runs {
			for v := r.start; v < r.end; v++ {
				if !fn(int(v)) {
					return
				}
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
	if iterRank(o) < iterRank(s) {
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
