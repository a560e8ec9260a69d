package bitset

import (
	"math/rand"
	"testing"
)

// Tests for the adaptive container machinery: the lazy empty
// representation (nil payload), container migration at the break-even
// thresholds, and the requirement that every binary operation behaves
// identically whatever containers hold its operands.

// denseSet returns a set of capacity n with the given bits, forced into
// the materialized dense representation even when empty.
func denseSet(n int, idx ...int) *Set {
	s := New(n)
	s.toDense()
	s.materialize()
	for _, i := range idx {
		s.Add(i)
	}
	return s
}

// payloadFree reports whether the set holds no allocated container
// payload at all — the O(1) empty representation.
func payloadFree(s *Set) bool {
	return s.words == nil && s.sparse == nil
}

func TestLazyZeroValueBehavior(t *testing.T) {
	s := New(200)
	if !payloadFree(s) {
		t.Fatal("New should not allocate a payload")
	}
	if s.Count() != 0 || !s.Empty() {
		t.Fatal("lazy set must read as empty")
	}
	if s.Contains(131) {
		t.Fatal("lazy Contains must be false")
	}
	s.Remove(7) // must not materialize or panic
	if !payloadFree(s) {
		t.Fatal("Remove on a lazy set must not materialize")
	}
	s.Clear()
	if !payloadFree(s) {
		t.Fatal("Clear on a lazy set must not materialize")
	}
	c := s.Clone()
	if !payloadFree(c) || c.Len() != 200 {
		t.Fatal("Clone of a lazy set must stay lazy with equal capacity")
	}
	g := s.Grown(300)
	if !payloadFree(g) || g.Len() != 300 {
		t.Fatal("Grown of a lazy set must stay lazy")
	}
	if s.Bytes() >= denseSet(200).Bytes() {
		t.Fatal("lazy set must report a smaller footprint")
	}
}

func TestFullSetIsDense(t *testing.T) {
	for _, n := range []int{1, 64, 100000} {
		s := NewFull(n)
		if s.mode != modeDense || s.Count() != n {
			t.Fatalf("NewFull(%d): mode=%d Count=%d", n, s.mode, s.Count())
		}
		if db := denseSet(n).Bytes(); s.Bytes() != db {
			t.Fatalf("full set of %d bits costs %d bytes, dense words %d", n, s.Bytes(), db)
		}
	}
	s := fromIndices(100, []int{3, 70})
	s.SetAll()
	if s.mode != modeDense || s.sparse != nil || s.Count() != 100 {
		t.Fatalf("SetAll on a sparse set: mode=%d sparse=%v Count=%d", s.mode, s.sparse, s.Count())
	}
	if got := testing.AllocsPerRun(10, s.SetAll); got != 0 {
		t.Fatalf("SetAll on materialized dense words allocates %.1f/op", got)
	}
}

func TestSparseMigratesToDense(t *testing.T) {
	const n = 4096 // sparseMax = 128
	s := New(n)
	for i := 0; i < sparseMax(n); i++ {
		s.Add(i * 3)
	}
	if s.mode != modeSparse {
		t.Fatalf("below threshold should stay sparse, mode=%d", s.mode)
	}
	s.Add(n - 1)
	if s.mode != modeDense {
		t.Fatalf("past threshold should migrate to dense, mode=%d", s.mode)
	}
	if s.Count() != sparseMax(n)+1 || !s.Contains(n-1) || !s.Contains(0) {
		t.Fatal("migration lost bits")
	}
}

func TestDenseDowngradesOnAnd(t *testing.T) {
	const n = 8192
	a, b := denseSet(n), denseSet(n)
	for i := 0; i < n; i += 2 {
		a.Add(i)
	}
	b.Add(100)
	b.Add(101)
	b.toDense()
	a.And(b)
	if a.mode != modeSparse {
		t.Fatalf("And leaving 1 bit should downgrade to sparse, mode=%d", a.mode)
	}
	if a.Count() != 1 || !a.Contains(100) {
		t.Fatalf("downgrade corrupted contents: %s", a)
	}
}

func TestCompactPicksSmallestContainer(t *testing.T) {
	const n = 10000
	sparse := denseSet(n, 1, 500, 9999)
	sparse.Compact()
	if sparse.mode != modeSparse {
		t.Fatalf("3 scattered bits should compact to sparse, mode=%d", sparse.mode)
	}
	nearFull := denseSet(n)
	for i := 0; i < n; i++ {
		nearFull.Add(i)
	}
	nearFull.Remove(5000)
	nearFull.Compact()
	if nearFull.mode != modeDense {
		t.Fatalf("near-full set should compact to dense, mode=%d", nearFull.mode)
	}
	if nearFull.Count() != n-1 || nearFull.Contains(5000) {
		t.Fatal("Compact corrupted contents")
	}
	mid := denseSet(n)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n/2; i++ {
		mid.Add(rng.Intn(n))
	}
	before := mid.Count()
	mid.Compact()
	if mid.mode != modeDense {
		t.Fatalf("half-density random set should stay dense, mode=%d", mid.mode)
	}
	if mid.Count() != before {
		t.Fatal("Compact changed the population")
	}
}

// mixes builds the same logical set in both container representations.
func mixes(n int, idx ...int) []*Set {
	base := fromIndices(n, idx)
	d := base.Clone()
	d.toDense()
	d.materialize()
	return []*Set{base, d}
}

func TestBinaryOpsAcrossContainerPairs(t *testing.T) {
	const n = 200
	aIdx := []int{0, 1, 2, 3, 50, 51, 52, 120, 199}
	bIdx := []int{2, 3, 4, 51, 52, 53, 121, 199}
	want := map[string]*Set{} // computed once from the dense pair
	ops := []string{"and", "andnot", "or"}
	da, db := denseSet(n, aIdx...), denseSet(n, bIdx...)
	for _, op := range ops {
		w := da.Clone()
		w.toDense()
		switch op {
		case "and":
			w.And(db)
		case "andnot":
			w.AndNot(db)
		case "or":
			w.Or(db)
		}
		want[op] = w
	}
	for ai, a := range mixes(n, aIdx...) {
		for bi, b := range mixes(n, bIdx...) {
			for _, op := range ops {
				got := a.Clone()
				switch op {
				case "and":
					got.And(b)
				case "andnot":
					got.AndNot(b)
				case "or":
					got.Or(b)
				}
				if !got.Equal(want[op]) {
					t.Errorf("a[%d] %s b[%d] = %s, want %s", ai, op, bi, got, want[op])
				}
			}
			if !a.Equal(da) || !b.Equal(db) {
				t.Errorf("operands mutated by read-only ops")
			}
		}
	}
}

func TestLazyBinaryOpsMatchMaterialized(t *testing.T) {
	const n = 130
	full := denseSet(n, 0, 1, 64, 65, 129)
	cases := []struct{ a, b *Set }{
		{New(n), New(n)},
		{New(n), full},
		{full, New(n)},
		{denseSet(n), New(n)},
		{New(n), denseSet(n)},
		{NewFull(n), full},
		{full, NewFull(n)},
	}
	for i, c := range cases {
		// Reference results computed against fully dense copies.
		am, bm := c.a.Clone(), c.b.Clone()
		am.toDense()
		am.materialize()
		bm.toDense()
		bm.materialize()

		and := c.a.Clone()
		and.And(c.b)
		wantAnd := am.Clone()
		wantAnd.And(bm)
		if !and.Equal(wantAnd) {
			t.Errorf("case %d: And mismatch", i)
		}
		andNot := c.a.Clone()
		andNot.AndNot(c.b)
		wantAndNot := am.Clone()
		wantAndNot.AndNot(bm)
		if !andNot.Equal(wantAndNot) {
			t.Errorf("case %d: AndNot mismatch", i)
		}
		or := c.a.Clone()
		or.Or(c.b)
		wantOr := am.Clone()
		wantOr.Or(bm)
		if !or.Equal(wantOr) {
			t.Errorf("case %d: Or mismatch", i)
		}
		if got, want := c.a.Equal(c.b), am.Equal(bm); got != want {
			t.Errorf("case %d: Equal %v != %v", i, got, want)
		}
	}
}

func TestForEachAndAndNot(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				a.Add(i)
			}
			if rng.Intn(3) == 0 {
				b.Add(i)
			}
		}
		// Exercise mixed container pairs: every trial converts one side.
		switch trial % 4 {
		case 1:
			a.toDense()
		case 2:
			b.toDense()
		case 3:
			a.Compact()
			b.toDense()
		}
		wantAnd := a.Clone()
		wantAnd.And(b)
		var gotAnd []int
		a.ForEachAnd(b, func(i int) bool { gotAnd = append(gotAnd, i); return true })
		if len(gotAnd) != wantAnd.Count() {
			t.Fatalf("ForEachAnd visited %d bits, want %d", len(gotAnd), wantAnd.Count())
		}
		for k, i := range gotAnd {
			if !wantAnd.Contains(i) {
				t.Fatalf("ForEachAnd visited %d not in a∩b", i)
			}
			if k > 0 && gotAnd[k-1] >= i {
				t.Fatalf("ForEachAnd out of order: %v", gotAnd)
			}
		}
		wantNot := a.Clone()
		wantNot.AndNot(b)
		var gotNot []int
		a.ForEachAndNot(b, func(i int) bool { gotNot = append(gotNot, i); return true })
		if len(gotNot) != wantNot.Count() {
			t.Fatalf("ForEachAndNot visited %d bits, want %d", len(gotNot), wantNot.Count())
		}
		for k, i := range gotNot {
			if !wantNot.Contains(i) {
				t.Fatalf("ForEachAndNot visited %d not in a\\b", i)
			}
			if k > 0 && gotNot[k-1] >= i {
				t.Fatalf("ForEachAndNot out of order: %v", gotNot)
			}
		}
	}

	// Early stop and lazy operands.
	a := denseSet(n, 1, 2, 3)
	visited := 0
	a.ForEachAndNot(New(n), func(i int) bool { visited++; return visited < 2 })
	if visited != 2 {
		t.Fatalf("early stop visited %d, want 2", visited)
	}
	New(n).ForEachAnd(a, func(i int) bool { t.Fatal("lazy ∩ x must visit nothing"); return false })
}

func TestAppendIndicesReusesBuffer(t *testing.T) {
	s := fromIndices(100, []int{3, 50, 99})
	buf := make([]int, 0, 8)
	out := s.AppendIndices(buf)
	if len(out) != 3 || out[0] != 3 || out[1] != 50 || out[2] != 99 {
		t.Fatalf("AppendIndices = %v", out)
	}
	if &out[0] != &buf[:1][0] {
		t.Fatal("AppendIndices must reuse the provided buffer's storage")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		buf = s.AppendIndices(buf[:0])
	}); allocs != 0 {
		t.Fatalf("AppendIndices into a sized buffer allocated %v times", allocs)
	}
}

func TestAscendingAddStaysAllocationCheap(t *testing.T) {
	// Ascending construction is the verification-order pattern; the
	// sparse append fast path must not reinsert.
	const n = 100000
	s := New(n)
	for i := 0; i < 20; i++ {
		s.Add(i * 97)
	}
	if s.mode != modeSparse || s.Count() != 20 {
		t.Fatalf("ascending small build: mode=%d count=%d", s.mode, s.Count())
	}
	got := s.Indices()
	for i := range got {
		if got[i] != i*97 {
			t.Fatalf("Indices = %v", got)
		}
	}
}

func TestClearKeepsScratchCapacity(t *testing.T) {
	// The posting-list scratch pattern: build, Clear, rebuild. Dense
	// scratch must stay materialized; sparse scratch keeps its backing.
	s := denseSet(1000, 5, 6, 7)
	s.Clear()
	if s.words == nil {
		t.Fatal("Clear must keep dense words for reuse")
	}
	sp := New(1000)
	sp.Add(3)
	sp.Add(4)
	back := &sp.sparse[:1][0]
	sp.Clear()
	sp.Add(9)
	if &sp.sparse[0] != back {
		t.Fatal("Clear must keep the sparse payload's backing array")
	}
}

func TestRemoveGraphPattern(t *testing.T) {
	// The live-mask lifecycle: full, remove a few, grow, add the new id.
	const n = 1000
	live := NewFull(n)
	live.Remove(17)
	live.Remove(400)
	if live.Count() != n-2 {
		t.Fatalf("after removals: count=%d", live.Count())
	}
	grown := live.Grown(n + 1)
	grown.Add(n)
	if grown.Count() != n-1 || !grown.Contains(n) || grown.Contains(400) {
		t.Fatal("grow+add lost bits")
	}
}

// TestFromWords checks the word-buffer constructor against bit-by-bit
// construction at populations on both sides of the sparse break-even, that
// it copies (the caller's buffer stays the caller's), and that bits beyond
// the capacity are a programming error.
func TestFromWords(t *testing.T) {
	const n = 4100 // 65 words, the last one partial
	rng := rand.New(rand.NewSource(7))
	for _, population := range []int{0, 1, sparseMax(n) / 2, sparseMax(n)/2 + 1, n / 3, n} {
		words := make([]uint64, 70) // longer than the capacity needs: the rest is ignored
		want := New(n)
		for _, i := range rng.Perm(n)[:population] {
			words[i/wordBits] |= 1 << (i % wordBits)
			want.Add(i)
		}
		got := FromWords(n, words)
		if !got.Equal(want) || got.Len() != n {
			t.Fatalf("population %d: FromWords differs from bit-by-bit construction", population)
		}
		if wantSparse := population*2 <= sparseMax(n); (got.mode == modeSparse) != wantSparse {
			t.Fatalf("population %d: container mode %d", population, got.mode)
		}
		clear(words)
		if got.Count() != population {
			t.Fatalf("population %d: the set kept the caller's buffer", population)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a bit beyond the capacity must panic")
		}
	}()
	words := make([]uint64, 65)
	words[64] = 1 << (n % wordBits)
	FromWords(n, words)
}
