//go:build !race

package bitset

import "testing"

// Allocation budget of the read paths: zero. Excluded under -race, whose
// instrumentation distorts the accounting.

// TestReadPathsAllocBudget: membership, Count, Empty, Equal and the
// three iterators allocate nothing on any operand pair
// drawn from both containers (sparse, dense) and both lazy
// all-zero forms, and neither does Compact on a set already in its
// smaller container.
func TestReadPathsAllocBudget(t *testing.T) {
	const n = 1000
	sets := append(mixes(n, 0, 1, 2, 3, 64, 65, 500, 998, 999), New(n), &Set{mode: modeDense, n: n})
	names := []string{"sparse", "dense", "lazy", "lazy dense"}
	visit := func(int) bool { return true }
	ops := []struct {
		name string
		op   func(a, b *Set)
	}{
		{"Contains", func(a, _ *Set) { a.Contains(998); a.Contains(700) }},
		{"Count", func(a, _ *Set) { a.Count() }},
		{"Empty", func(a, _ *Set) { a.Empty() }},
		{"Equal", func(a, b *Set) { a.Equal(b) }},
		{"ForEach", func(a, _ *Set) { a.ForEach(visit) }},
		{"ForEachAnd", func(a, b *Set) { a.ForEachAnd(b, visit) }},
		{"ForEachAndNot", func(a, b *Set) { a.ForEachAndNot(b, visit) }},
	}
	for _, o := range ops {
		for i, a := range sets {
			for j, b := range sets {
				if got := testing.AllocsPerRun(10, func() { o.op(a, b) }); got != 0 {
					t.Errorf("%s(%s, %s) allocates %.1f/op, budget 0", o.name, names[i], names[j], got)
				}
			}
		}
	}

	idx := make([]int, 0, n/3)
	for i := 0; i < n; i += 3 {
		idx = append(idx, i)
	}
	// AllocsPerRun's warm-up call moves each set into its smaller
	// container: dense, sparse and the empty form.
	for _, c := range []struct {
		s    *Set
		mode uint8
	}{
		{fromIndices(n, idx), modeDense},
		{fromIndices(n, []int{5, 300, 700}), modeSparse},
		{New(n), modeSparse},
	} {
		if got := testing.AllocsPerRun(10, c.s.Compact); got != 0 || c.s.mode != c.mode {
			t.Errorf("Compact of a %d-bit set in its smaller container (mode %d, want %d) allocates %.1f/op, budget 0",
				c.s.Count(), c.s.mode, c.mode, got)
		}
	}
	lazy := New(n)
	if got := testing.AllocsPerRun(10, func() { lazy.And(sets[1]) }); got != 0 {
		t.Errorf("And into the lazy set allocates %.1f/op, budget 0", got)
	}
}
