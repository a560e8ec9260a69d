package bitset

import "math/bits"

// Ascending iteration and membership probing that work over either
// container without allocating: cursor and prober are plain struct
// values the caller keeps on its stack, so the allocation-free read
// paths (Equal, ForEachAnd, ForEachAndNot; alloc_test.go) can
// dispatch across container pairs through them instead of materializing
// a dense copy.

// cursor yields the set bits of one Set in ascending order.
type cursor struct {
	s  *Set
	wi int    // dense: current word index
	w  uint64 // dense: unconsumed bits of words[wi]
	si int    // sparse: next element index
}

func (c *cursor) init(s *Set) {
	c.s = s
	c.wi, c.w, c.si = -1, 0, 0
}

// next returns the next set bit in ascending order; ok is false when the
// set is exhausted.
func (c *cursor) next() (i int, ok bool) {
	if c.s.mode == modeSparse {
		if c.si >= len(c.s.sparse) {
			return 0, false
		}
		v := c.s.sparse[c.si]
		c.si++
		return int(v), true
	}
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

// prober answers membership queries for a monotonically ascending probe
// sequence in amortized O(1) per probe for the sparse container: the
// position hint only ever moves forward, so a full sweep costs O(payload)
// total, not O(payload · probes).
type prober struct {
	s  *Set
	si int // sparse: element hint
}

// contains reports whether i is set. Successive calls must pass
// non-decreasing i.
func (p *prober) contains(i int) bool {
	if p.s.mode == modeSparse {
		sp := p.s.sparse
		for p.si < len(sp) && sp[p.si] < uint32(i) {
			p.si++
		}
		return p.si < len(sp) && sp[p.si] == uint32(i)
	}
	if p.s.words == nil {
		return false
	}
	return p.s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}
