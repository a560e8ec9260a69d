// Package bitset provides fixed-capacity bitsets with adaptive storage.
//
// GraphCache represents answer sets and candidate sets as bitsets indexed by
// dataset-graph position, so the candidate-set algebra of the kernel
// (C = (C_M ∩ ⋂ A(h')) \ S) runs container-parallel. The zero value of Set
// is an empty bitset of capacity 0; use New for a sized one.
//
// # Adaptive containers
//
// A Set stores its bits in one of two containers and migrates between
// them as its population changes, so footprint tracks answer size, not
// dataset size:
//
//   - sparse: a sorted []uint32 of set indices. The zero value and New
//     produce an empty sparse set with a nil payload, so an all-zero set
//     costs O(1) at any capacity — this keeps the empty Excluded/Survivors
//     sets the cache shares across its Results small. Ascending Add (the
//     order verification and posting-list construction emit) appends in
//     O(1); past the density threshold the set migrates to dense.
//   - dense: the classic []uint64 word array, with word-parallel binary
//     ops. A nil word slice still means "all clear" (the legacy lazy
//     representation), so materialization stays a mutation-time event.
//     NewFull and SetAll build dense words.
//
// Migration is container-local: sparse sets upgrade to dense when they
// outgrow their byte break-even (sparseMax); dense sets downgrade to
// sparse when an And/AndNot leaves them far below it (the population
// count is fused into the word loop, so the check is free). Compact
// re-encodes a set in its smaller container — publication points (entry
// admission, removals, persistence restore) call it so long-lived sets
// always pay the minimal footprint. Every binary operation is specialized
// per container pair: sparse∧sparse costs O(min population), a mixed
// pair iterates the sparse side and probes the dense words, and
// dense∧dense stays word-parallel.
//
// Operations that combine two sets require equal capacity and panic
// otherwise: mixing sets over different datasets is a programming error,
// not a runtime condition.
package bitset

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

const wordBits = 64

// Container modes. modeSparse is zero so the zero value of Set — and New,
// which only sets the capacity — is the empty sparse set with no payload.
const (
	modeSparse uint8 = iota // sparse: sorted set indices; nil = empty
	modeDense               // words: bit array; nil = all clear (lazy)
)

// maxSparseCap is the largest capacity whose indices fit the uint32-based
// sparse container; larger sets stay dense.
const maxSparseCap = uint64(1) << 32

// fits32 reports whether every index of a capacity-n set fits in uint32.
func fits32(n int) bool { return uint64(n) <= maxSparseCap }

// Set is a bitset with a fixed capacity chosen at construction. Exactly
// one of words/sparse is active, selected by mode; the other is nil. See
// the package comment for the container invariants.
type Set struct {
	words  []uint64 // modeDense payload; nil means all clear
	sparse []uint32 // modeSparse payload; sorted, unique; nil/empty = empty set
	mode   uint8
	n      int // capacity in bits
}

// New returns an empty set with capacity for n bits (bit indices 0..n-1).
// The payload is allocated lazily on first mutation, so New itself costs
// one small fixed allocation regardless of n.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	s := &Set{n: n}
	if !fits32(n) {
		s.mode = modeDense // indices would overflow the sparse container
	}
	return s
}

// NewFull returns a set of capacity n with all n bits set, as dense words.
func NewFull(n int) *Set {
	s := New(n)
	s.SetAll()
	return s
}

// FromWords returns a set of capacity n with exactly the bits of words set:
// bit i%64 of words[i/64] is bit i, and no bit at or beyond n may be set.
// The words are read, never kept, so a caller can run word-parallel loops
// over a pooled buffer and publish the result with one payload
// allocation — sparse at or below the shrinkDense break-even, dense above.
func FromWords(n int, words []uint64) *Set {
	s := New(n)
	words = words[:(n+wordBits-1)/wordBits]
	if n%wordBits != 0 && words[len(words)-1]>>(uint(n)%wordBits) != 0 {
		panic(fmt.Sprintf("bitset: FromWords has bits beyond capacity %d", n))
	}
	count := 0
	for _, w := range words {
		count += bits.OnesCount64(w)
	}
	if count == 0 {
		return s
	}
	s.mode, s.words = modeDense, words // borrowed: shrinkDense only reads them
	if s.shrinkDense(count); s.mode == modeDense {
		s.words = slices.Clone(words)
	}
	return s
}

// Len returns the capacity in bits.
func (s *Set) Len() int { return s.n }

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// materialize allocates the word storage of an all-clear dense set so a
// bit can be set in place. Only valid in modeDense.
func (s *Set) materialize() {
	if s.words == nil {
		s.words = make([]uint64, (s.n+wordBits-1)/wordBits)
	}
}

// Add sets bit i.
func (s *Set) Add(i int) {
	s.check(i)
	switch s.mode {
	case modeSparse:
		s.addSparse(uint32(i))
	default:
		s.materialize()
		s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
	}
}

// addSparse inserts v into the sorted sparse payload, migrating to dense
// past the break-even. The append fast path makes ascending construction
// (verification order, posting lists) O(1) amortized per bit.
func (s *Set) addSparse(v uint32) {
	k := len(s.sparse)
	if k > 0 && s.sparse[k-1] == v {
		return
	}
	j := k
	if k > 0 && s.sparse[k-1] > v {
		j = searchU32(s.sparse, v)
		if j < k && s.sparse[j] == v {
			return
		}
	}
	if k >= sparseMax(s.n) {
		s.toDense()
		s.words[v/wordBits] |= 1 << (v % wordBits)
		return
	}
	s.sparse = append(s.sparse, 0)
	copy(s.sparse[j+1:], s.sparse[j:])
	s.sparse[j] = v
}

// Remove clears bit i.
func (s *Set) Remove(i int) {
	s.check(i)
	switch s.mode {
	case modeSparse:
		v := uint32(i)
		j := searchU32(s.sparse, v)
		if j < len(s.sparse) && s.sparse[j] == v {
			s.sparse = append(s.sparse[:j], s.sparse[j+1:]...)
		}
	default:
		if s.words == nil {
			return
		}
		s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

// Contains reports whether bit i is set.
func (s *Set) Contains(i int) bool {
	s.check(i)
	switch s.mode {
	case modeSparse:
		j := searchU32(s.sparse, uint32(i))
		return j < len(s.sparse) && s.sparse[j] == uint32(i)
	default:
		if s.words == nil {
			return false
		}
		return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	switch s.mode {
	case modeSparse:
		return len(s.sparse)
	default:
		c := 0
		for _, w := range s.words {
			c += bits.OnesCount64(w)
		}
		return c
	}
}

// Empty reports whether no bit is set.
func (s *Set) Empty() bool {
	switch s.mode {
	case modeSparse:
		return len(s.sparse) == 0
	default:
		for _, w := range s.words {
			if w != 0 {
				return false
			}
		}
		return true
	}
}

// Clear resets all bits. Materialized payloads keep their capacity where
// the container allows (dense words are zeroed in place, the sparse slice
// is truncated), so cleared scratch sets rebuild without reallocating.
func (s *Set) Clear() {
	switch s.mode {
	case modeSparse:
		s.sparse = s.sparse[:0]
	default:
		for i := range s.words {
			s.words[i] = 0
		}
	}
}

// SetAll sets every bit in [0, Len()) as dense words, filled in place
// when the set is already materialized dense so scratch reuse stays
// allocation-free.
func (s *Set) SetAll() {
	if s.n == 0 {
		return
	}
	s.sparse, s.mode = nil, modeDense
	s.materialize()
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trimTail()
}

// trimTail clears the unused high bits of the last word so Count and
// iteration never observe bits beyond the capacity. Dense mode only.
func (s *Set) trimTail() {
	if s.n%wordBits != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << (uint(s.n) % wordBits)) - 1
	}
}

// Clone returns a deep copy. Cloning an empty set is O(1): the copy
// shares the lazy nil-payload representation.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n}
	c.becomeCopyOf(s)
	return c
}

// Grown returns a deep copy of s with capacity n ≥ s.Len(): existing bits
// keep their positions, new bits start clear. It is how answer sets follow
// a growing dataset — positions are stable, so growth never remaps ids.
// A sparse set grows for free: only its capacity field changes.
func (s *Set) Grown(n int) *Set {
	if n < s.n {
		panic(fmt.Sprintf("bitset: cannot grow capacity %d down to %d", s.n, n))
	}
	c := &Set{mode: s.mode, n: n}
	switch s.mode {
	case modeSparse:
		if len(s.sparse) > 0 {
			c.sparse = make([]uint32, len(s.sparse))
			copy(c.sparse, s.sparse)
		}
	default:
		if s.words == nil {
			return c
		}
		c.words = make([]uint64, (n+wordBits-1)/wordBits)
		copy(c.words, s.words)
	}
	return c
}

func (s *Set) sameCap(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d != %d", s.n, o.n))
	}
}

// Indices returns the set bits in ascending order.
func (s *Set) Indices() []int {
	return s.AppendIndices(make([]int, 0, s.Count()))
}

// AppendIndices appends the set bits in ascending order to dst and
// returns the extended slice, allocating only when dst lacks capacity.
func (s *Set) AppendIndices(dst []int) []int {
	s.ForEach(func(i int) bool {
		dst = append(dst, i)
		return true
	})
	return dst
}

// Bytes returns the approximate heap footprint of the set in bytes,
// used by the cache's memory accounting. Only the active container's
// payload counts, so migration and Compact change the reported footprint
// — callers that account long-lived sets must recharge after either.
func (s *Set) Bytes() int {
	switch s.mode {
	case modeSparse:
		return 4*len(s.sparse) + 24
	default:
		return 8*len(s.words) + 24
	}
}

// String renders the set as a compact index list, e.g. "{1, 4, 7}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
