package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
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
	return s.words == nil && s.sparse == nil && s.runs == nil
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

func TestFullSetIsOneSpan(t *testing.T) {
	for _, n := range []int{1, 64, 100000} {
		s := NewFull(n)
		if s.mode != modeRun || len(s.runs) != 1 {
			t.Fatalf("NewFull(%d) not a single span: mode=%d runs=%d", n, s.mode, len(s.runs))
		}
		if s.Count() != n || !s.isFull() {
			t.Fatalf("NewFull(%d) Count=%d isFull=%v", n, s.Count(), s.isFull())
		}
		if db := denseSet(n).Bytes(); n > 64 && s.Bytes() >= db {
			t.Fatalf("full span of %d bits costs %d bytes >= dense %d", n, s.Bytes(), db)
		}
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

func TestRunSplitsMigrateToDense(t *testing.T) {
	const n = 512 // runMax = 8
	s := NewFull(n)
	// Each interior removal splits one span; past runMax the set goes dense.
	for i := 0; i < runMax(n)+2; i++ {
		s.Remove(10 + i*20)
	}
	if s.mode != modeDense {
		t.Fatalf("span splits past runMax should migrate to dense, mode=%d", s.mode)
	}
	if got := s.Count(); got != n-(runMax(n)+2) {
		t.Fatalf("Count after splits = %d", got)
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
	if nearFull.mode != modeRun || len(nearFull.runs) != 2 {
		t.Fatalf("near-full set should compact to 2 spans, mode=%d runs=%d", nearFull.mode, len(nearFull.runs))
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

func TestFingerprintContainerIndependent(t *testing.T) {
	const n = 300
	mk := func() []*Set {
		a := FromIndices(n, []int{0, 1, 2, 3, 64, 65, 150})
		b := a.Clone()
		b.toDense()
		c := a.Clone()
		c.Compact() // 3 runs × 8 B < 7 idx × 4 B? 24 < 28: run container
		return []*Set{a, b, c}
	}
	sets := mk()
	fp := sets[0].Fingerprint()
	for i, s := range sets {
		if got := s.Fingerprint(); got != fp {
			t.Fatalf("set %d fingerprint %x != %x", i, got, fp)
		}
		if !s.Equal(sets[0]) {
			t.Fatalf("set %d not Equal after conversion", i)
		}
	}
	other := FromIndices(n, []int{0, 1, 2, 3, 64, 65, 151})
	if other.Fingerprint() == fp {
		t.Fatal("different contents should fingerprint differently")
	}
	if New(n).Fingerprint() == NewFull(n).Fingerprint() {
		t.Fatal("empty and full should fingerprint differently")
	}
	// Capacity does not feed the fingerprint (Grown must preserve it); the
	// intern pool keeps such twins apart by Equal.
	if a, b := New(100), New(101); a.Fingerprint() != b.Fingerprint() || a.Equal(b) {
		t.Fatal("sets differing only in capacity must fingerprint alike and compare unequal")
	}
}

// TestQuickFingerprintIncremental is the contract the cache's delta
// maintenance rests on: starting from a random set in every container,
// a fingerprint kept current by ±ElemHash through random Add / Remove /
// Grown / Compact chains equals Fingerprint() from scratch at every step,
// and an Equal set rebuilt from the indices agrees.
func TestQuickFingerprintIncremental(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(600)
		var idx []int
		for i, density := 0, rng.Float64(); i < n; i++ {
			if rng.Float64() < density*density { // skew toward sparse, reach near-full
				idx = append(idx, i)
			}
		}
		for _, s := range mixes(n, idx...) {
			fp := s.Fingerprint()
			for step := 0; step < 40; step++ {
				switch i := rng.Intn(s.Len()); rng.Intn(4) {
				case 0:
					if !s.Contains(i) {
						fp += ElemHash(i)
					}
					s.Add(i)
				case 1:
					if s.Contains(i) {
						fp -= ElemHash(i)
					}
					s.Remove(i)
				case 2:
					s = s.Grown(s.Len() + rng.Intn(70))
				case 3:
					s.Compact()
				}
				if s.Fingerprint() != fp {
					t.Logf("seed %d step %d: incremental %x, from scratch %x (mode %d)", seed, step, fp, s.Fingerprint(), s.mode)
					return false
				}
			}
			twin := FromIndices(s.Len(), s.Indices())
			if !twin.Equal(s) || twin.Fingerprint() != fp {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// mixes builds the same logical set in every container representation.
func mixes(n int, idx ...int) []*Set {
	base := FromIndices(n, idx)
	d := base.Clone()
	d.toDense()
	d.materialize()
	r := base.Clone()
	if len(idx) > 0 {
		r.toRun(len(idx)) // worst-case span count is one per bit
	}
	return []*Set{base, d, r}
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
			if got, w := a.IntersectionCount(b), da.IntersectionCount(db); got != w {
				t.Errorf("a[%d] ∩count b[%d] = %d, want %d", ai, bi, got, w)
			}
			if got, w := a.DifferenceCount(b), da.DifferenceCount(db); got != w {
				t.Errorf("a[%d] \\count b[%d] = %d, want %d", ai, bi, got, w)
			}
			if got, w := a.SubsetOf(b), da.SubsetOf(db); got != w {
				t.Errorf("a[%d] ⊆ b[%d] = %v, want %v", ai, bi, got, w)
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
		if got, want := c.a.IntersectionCount(c.b), am.IntersectionCount(bm); got != want {
			t.Errorf("case %d: IntersectionCount %d != %d", i, got, want)
		}
		if got, want := c.a.DifferenceCount(c.b), am.DifferenceCount(bm); got != want {
			t.Errorf("case %d: DifferenceCount %d != %d", i, got, want)
		}
		if got, want := c.a.SubsetOf(c.b), am.SubsetOf(bm); got != want {
			t.Errorf("case %d: SubsetOf %v != %v", i, got, want)
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
	s := FromIndices(100, []int{3, 50, 99})
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
	if live.mode != modeRun || live.Count() != n-2 {
		t.Fatalf("after removals: mode=%d count=%d", live.mode, live.Count())
	}
	grown := live.Grown(n + 1)
	grown.Add(n)
	if grown.Count() != n-1 || !grown.Contains(n) || grown.Contains(400) {
		t.Fatal("grow+add lost bits")
	}
	if grown.mode != modeRun {
		t.Fatalf("near-full mask should stay in the run container, mode=%d", grown.mode)
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
