package bitset

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzBitsetOps drives a random operation sequence against two adaptive
// sets and a deliberately naive []bool reference implementation, checking
// after every step that Indices, Count, Contains, SubsetOf, Equal, the
// counting ops and the incrementally maintained Fingerprint agree —
// whatever container mix the sequence has migrated the sets into. The byte stream encodes (capacity, then op+operand
// pairs), so the corpus doubles as a library of migration scenarios:
// sparse→dense upgrades, run splits, fused-And downgrades, Compact
// round-trips and cross-container binary ops.

// refBits is the reference model: one bool per bit, no containers, no
// laziness, nothing shared with the implementation under test.
type refBits struct{ bits []bool }

func newRef(n int) *refBits { return &refBits{bits: make([]bool, n)} }

func (r *refBits) clone() *refBits {
	c := newRef(len(r.bits))
	copy(c.bits, r.bits)
	return c
}

func (r *refBits) grown(n int) *refBits {
	c := newRef(n)
	copy(c.bits, r.bits)
	return c
}

func (r *refBits) indices() []int {
	var out []int
	for i, b := range r.bits {
		if b {
			out = append(out, i)
		}
	}
	return out
}

func (r *refBits) equal(o *refBits) bool {
	if len(r.bits) != len(o.bits) {
		return false
	}
	for i := range r.bits {
		if r.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

func (r *refBits) subsetOf(o *refBits) bool {
	for i := range r.bits {
		if r.bits[i] && !o.bits[i] {
			return false
		}
	}
	return true
}

// fingerprint is the spec of Set.Fingerprint: the wrapping sum of
// ElemHash over the set bits.
func (r *refBits) fingerprint() uint64 {
	var h uint64
	for i, b := range r.bits {
		if b {
			h += ElemHash(i)
		}
	}
	return h
}

func (r *refBits) interCount(o *refBits) int {
	c := 0
	for i := range r.bits {
		if r.bits[i] && o.bits[i] {
			c++
		}
	}
	return c
}

func (r *refBits) diffCount(o *refBits) int {
	c := 0
	for i := range r.bits {
		if r.bits[i] && !o.bits[i] {
			c++
		}
	}
	return c
}

// checkAgainstRef asserts every read-path agreement between a Set and
// its reference twin.
func checkAgainstRef(t *testing.T, step int, s *Set, r *refBits) {
	t.Helper()
	if s.Len() != len(r.bits) {
		t.Fatalf("step %d: Len %d != %d", step, s.Len(), len(r.bits))
	}
	want := r.indices()
	got := s.Indices()
	if len(got) != len(want) {
		t.Fatalf("step %d: Indices %v != %v (mode=%d)", step, got, want, s.mode)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: Indices %v != %v (mode=%d)", step, got, want, s.mode)
		}
	}
	if s.Count() != len(want) {
		t.Fatalf("step %d: Count %d != %d (mode=%d)", step, s.Count(), len(want), s.mode)
	}
	if s.Empty() != (len(want) == 0) {
		t.Fatalf("step %d: Empty mismatch", step)
	}
	for _, i := range want {
		if !s.Contains(i) {
			t.Fatalf("step %d: Contains(%d) false for a set bit", step, i)
		}
	}
}

func fuzzOps(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	n := 1 + int(data[0])<<2 // capacities 1..1021 cross word and threshold edges
	a, b := New(n), New(n)
	ra, rb := newRef(n), newRef(n)
	// fa and fb are a's and b's fingerprints kept current the way the
	// cache keeps them: ±ElemHash on single-bit changes, untouched by
	// Clone and Compact, rehashed only after whole-set algebra.
	var fa, fb uint64
	data = data[1:]
	for step := 0; step+1 < len(data); step += 2 {
		op, arg := data[step], int(data[step+1])
		i := arg * n / 256 // scale the operand byte into [0, n)
		switch op % 12 {
		case 0:
			if !ra.bits[i] {
				fa += ElemHash(i)
			}
			a.Add(i)
			ra.bits[i] = true
		case 1:
			if ra.bits[i] {
				fa -= ElemHash(i)
			}
			a.Remove(i)
			ra.bits[i] = false
		case 2:
			if !rb.bits[i] {
				fb += ElemHash(i)
			}
			b.Add(i)
			rb.bits[i] = true
		case 3:
			if rb.bits[i] {
				fb -= ElemHash(i)
			}
			b.Remove(i)
			rb.bits[i] = false
		case 4:
			a.And(b)
			for k := range ra.bits {
				ra.bits[k] = ra.bits[k] && rb.bits[k]
			}
			fa = ra.fingerprint()
		case 5:
			a.AndNot(b)
			for k := range ra.bits {
				ra.bits[k] = ra.bits[k] && !rb.bits[k]
			}
			fa = ra.fingerprint()
		case 6:
			a.Or(b)
			for k := range ra.bits {
				ra.bits[k] = ra.bits[k] || rb.bits[k]
			}
			fa = ra.fingerprint()
		case 7:
			a.Clear()
			ra = newRef(n)
			fa = 0
		case 8:
			a.SetAll()
			for k := range ra.bits {
				ra.bits[k] = true
			}
			fa = ra.fingerprint()
		case 9:
			a = a.Clone()
			ra = ra.clone()
		case 10:
			a.Compact()
		case 11:
			a, b = b, a
			ra, rb = rb, ra
			fa, fb = fb, fa
		}
		if a.Fingerprint() != fa || b.Fingerprint() != fb {
			t.Fatalf("step %d: maintained fingerprints %x,%x; from scratch %x,%x (modes %d,%d)",
				step, fa, fb, a.Fingerprint(), b.Fingerprint(), a.mode, b.mode)
		}
		checkAgainstRef(t, step, a, ra)
		checkAgainstRef(t, step, b, rb)
		if got, want := a.SubsetOf(b), ra.subsetOf(rb); got != want {
			t.Fatalf("step %d: SubsetOf %v != %v (modes %d,%d)", step, got, want, a.mode, b.mode)
		}
		if got, want := a.Equal(b), ra.equal(rb); got != want {
			t.Fatalf("step %d: Equal %v != %v (modes %d,%d)", step, got, want, a.mode, b.mode)
		}
		if got, want := a.IntersectionCount(b), ra.interCount(rb); got != want {
			t.Fatalf("step %d: IntersectionCount %d != %d (modes %d,%d)", step, got, want, a.mode, b.mode)
		}
		if got, want := a.DifferenceCount(b), ra.diffCount(rb); got != want {
			t.Fatalf("step %d: DifferenceCount %d != %d (modes %d,%d)", step, got, want, a.mode, b.mode)
		}
		if ra.equal(rb) != (a.Fingerprint() == b.Fingerprint()) {
			// Equal contents must collide; a fingerprint collision on
			// unequal contents is possible in principle but at 2^-64 it
			// is a bug in practice for these tiny inputs.
			t.Fatalf("step %d: Fingerprint/Equal disagree", step)
		}
	}
	// Growth must preserve every bit position under any container.
	g := a.Grown(n + 17)
	rg := ra.grown(n + 17)
	if g.Fingerprint() != fa {
		t.Fatalf("Grown moved the fingerprint: %x != %x", g.Fingerprint(), fa)
	}
	g.Add(n + 3)
	rg.bits[n+3] = true
	checkAgainstRef(t, -1, g, rg)
	if g.Fingerprint() != fa+ElemHash(n+3) {
		t.Fatal("fingerprint of a grown set did not follow its added bit")
	}
}

func FuzzBitsetOps(f *testing.F) {
	// Seeds cover each container's migration edges; the committed corpus
	// under testdata/fuzz/FuzzBitsetOps extends them with found cases.
	ascending := []byte{16} // small capacity, ascending sparse build
	for i := 0; i < 40; i++ {
		ascending = append(ascending, 0, byte(i*6))
	}
	f.Add(ascending)
	full := []byte{255, 8, 0} // SetAll then interior removals: run splits
	for i := 0; i < 20; i++ {
		full = append(full, 1, byte(i*12+5))
	}
	f.Add(full)
	var mixed []byte
	mixed = append(mixed, 64)
	for i := 0; i < 30; i++ {
		mixed = append(mixed, byte(i*7), byte(i*31))
	}
	f.Add(mixed)
	f.Add([]byte{4, 8, 0, 2, 100, 4, 0, 10, 0, 5, 0, 6, 0, 11, 0, 9, 0})
	f.Fuzz(fuzzOps)
}

// TestFuzzSeedsReplay keeps the seed scenarios in the plain `go test`
// suite with readable failures, independent of fuzzing support.
func TestFuzzSeedsReplay(t *testing.T) {
	var seqs [][]byte
	ascending := []byte{16}
	for i := 0; i < 40; i++ {
		ascending = append(ascending, 0, byte(i*6))
	}
	seqs = append(seqs, ascending)
	rng := []byte{200}
	x := uint32(2463534242)
	for i := 0; i < 200; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		rng = append(rng, byte(x), byte(x>>8))
	}
	seqs = append(seqs, rng)
	for i, s := range seqs {
		t.Run(fmt.Sprint(i), func(t *testing.T) { fuzzOps(t, bytes.Clone(s)) })
	}
}
