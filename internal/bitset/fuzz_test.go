package bitset

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzBitsetOps drives a random operation sequence against two adaptive
// sets and a deliberately naive []bool reference implementation, checking
// after every step that Indices, Count, Contains, Equal and the visits of
// ForEachAnd and ForEachAndNot agree — whatever container mix the sequence has migrated
// the sets into. The byte stream encodes (capacity, then op+operand
// pairs), so the corpus doubles as a library of migration scenarios:
// sparse→dense upgrades, fused-And downgrades, Compact round-trips and
// cross-container binary ops.

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
	data = data[1:]
	for step := 0; step+1 < len(data); step += 2 {
		op, arg := data[step], int(data[step+1])
		i := arg * n / 256 // scale the operand byte into [0, n)
		switch op % 12 {
		case 0:
			a.Add(i)
			ra.bits[i] = true
		case 1:
			a.Remove(i)
			ra.bits[i] = false
		case 2:
			b.Add(i)
			rb.bits[i] = true
		case 3:
			b.Remove(i)
			rb.bits[i] = false
		case 4:
			a.And(b)
			for k := range ra.bits {
				ra.bits[k] = ra.bits[k] && rb.bits[k]
			}
		case 5:
			a.AndNot(b)
			for k := range ra.bits {
				ra.bits[k] = ra.bits[k] && !rb.bits[k]
			}
		case 6:
			a.Or(b)
			for k := range ra.bits {
				ra.bits[k] = ra.bits[k] || rb.bits[k]
			}
		case 7:
			a.Clear()
			ra = newRef(n)
		case 8:
			a.SetAll()
			for k := range ra.bits {
				ra.bits[k] = true
			}
		case 9:
			a = a.Clone()
			ra = ra.clone()
		case 10:
			a.Compact()
		case 11:
			a, b = b, a
			ra, rb = rb, ra
		}
		checkAgainstRef(t, step, a, ra)
		checkAgainstRef(t, step, b, rb)
		if got, want := a.Equal(b), ra.equal(rb); got != want {
			t.Fatalf("step %d: Equal %v != %v (modes %d,%d)", step, got, want, a.mode, b.mode)
		}
		inter, diff := 0, 0
		a.ForEachAnd(b, func(int) bool { inter++; return true })
		a.ForEachAndNot(b, func(int) bool { diff++; return true })
		if want := ra.interCount(rb); inter != want {
			t.Fatalf("step %d: ForEachAnd visits %d != %d (modes %d,%d)", step, inter, want, a.mode, b.mode)
		}
		if want := ra.diffCount(rb); diff != want {
			t.Fatalf("step %d: ForEachAndNot visits %d != %d (modes %d,%d)", step, diff, want, a.mode, b.mode)
		}
	}
	// Growth must preserve every bit position under any container.
	g := a.Grown(n + 17)
	rg := ra.grown(n + 17)
	g.Add(n + 3)
	rg.bits[n+3] = true
	checkAgainstRef(t, -1, g, rg)
}

func FuzzBitsetOps(f *testing.F) {
	// Seeds cover each container's migration edges; the committed corpus
	// under testdata/fuzz/FuzzBitsetOps extends them with found cases.
	ascending := []byte{16} // small capacity, ascending sparse build
	for i := 0; i < 40; i++ {
		ascending = append(ascending, 0, byte(i*6))
	}
	f.Add(ascending)
	full := []byte{255, 8, 0} // SetAll then interior removals from dense words
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
