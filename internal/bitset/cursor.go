package bitset

import "math/bits"

// Ascending iteration and membership probing that work over any
// container without allocating: cursor and prober are plain struct
// values the caller keeps on its stack, so the allocation-free read
// paths (ForEachAnd, SubsetOf, the counting ops; alloc_test.go) can
// dispatch across container pairs through them instead of materializing
// a dense copy.

// cursor yields the set bits of one Set in ascending order.
type cursor struct {
	s  *Set
	wi int    // dense: current word index
	w  uint64 // dense: unconsumed bits of words[wi]
	si int    // sparse: next element index; run: current span index
	ri int    // run: next value to yield within runs[si]
}

func (c *cursor) init(s *Set) {
	c.s = s
	c.wi, c.w, c.si, c.ri = -1, 0, 0, 0
	if s.mode == modeRun && len(s.runs) > 0 {
		c.ri = int(s.runs[0].start)
	}
}

// next returns the next set bit in ascending order; ok is false when the
// set is exhausted.
func (c *cursor) next() (i int, ok bool) {
	switch c.s.mode {
	case modeSparse:
		if c.si >= len(c.s.sparse) {
			return 0, false
		}
		v := c.s.sparse[c.si]
		c.si++
		return int(v), true
	case modeRun:
		for c.si < len(c.s.runs) {
			r := c.s.runs[c.si]
			if c.ri < int(r.end) {
				v := c.ri
				c.ri++
				return v, true
			}
			c.si++
			if c.si < len(c.s.runs) {
				c.ri = int(c.s.runs[c.si].start)
			}
		}
		return 0, false
	default:
		for c.w == 0 {
			c.wi++
			if c.wi >= len(c.s.words) {
				return 0, false
			}
			c.w = c.s.words[c.wi]
		}
		b := bits.TrailingZeros64(c.w)
		c.w &= c.w - 1
		return c.wi*wordBits + b, true
	}
}

// prober answers membership queries for a monotonically ascending probe
// sequence in amortized O(1) per probe for the compact containers: the
// position hint only ever moves forward, so a full sweep costs O(payload)
// total, not O(payload · probes).
type prober struct {
	s  *Set
	si int // sparse: element hint; run: span hint
}

// contains reports whether i is set. Successive calls must pass
// non-decreasing i.
func (p *prober) contains(i int) bool {
	switch p.s.mode {
	case modeSparse:
		sp := p.s.sparse
		for p.si < len(sp) && sp[p.si] < uint32(i) {
			p.si++
		}
		return p.si < len(sp) && sp[p.si] == uint32(i)
	case modeRun:
		rs := p.s.runs
		for p.si < len(rs) && int(rs[p.si].end) <= i {
			p.si++
		}
		return p.si < len(rs) && int(rs[p.si].start) <= i
	default:
		if p.s.words == nil {
			return false
		}
		return p.s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
	}
}
