package ftv

import (
	"slices"
	"testing"
)

// seq returns 1..n, so that no entry reads zero.
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i + 1
	}
	return s
}

func TestChunkedSliceRoundTrips(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 600} {
		s := seq(n)
		a := chunkedOf(s)
		if a.Len() != n || !slices.Equal(a.Slice(), s) {
			t.Fatalf("n=%d: Len %d, Slice %v", n, a.Len(), a.Slice())
		}
		for i, v := range s {
			if a.At(i) != v {
				t.Fatalf("n=%d: At(%d) = %d, want %d", n, i, a.At(i), v)
			}
		}
	}
}

// TestChunkedWith writes around the first chunk boundary of a one-chunk
// array, inside a longer one and past its end: the result reads the new
// value, every other position as before, positions a growth skips zero,
// and shares every chunk but the written one; the receiver never changes.
func TestChunkedWith(t *testing.T) {
	for _, tc := range []struct{ n, i int }{
		{256, 255}, // last slot of the only chunk
		{256, 256}, // appends a chunk
		{256, 257}, // appends a chunk past a gap of one
		{600, 300}, // inside a middle chunk
		{600, 1100},
		{0, 1000}, // an empty array grown by gaps only
	} {
		s := seq(tc.n)
		a := chunkedOf(s)
		b := a.With(tc.i, -1)
		if !slices.Equal(a.Slice(), s) || a.Len() != tc.n {
			t.Fatalf("n=%d With(%d): receiver changed", tc.n, tc.i)
		}
		want := slices.Clone(s)
		if tc.i >= len(want) {
			want = append(want, make([]int, tc.i+1-len(want))...)
		}
		want[tc.i] = -1
		if b.Len() != len(want) || !slices.Equal(b.Slice(), want) {
			t.Fatalf("n=%d With(%d): got %v, want %v", tc.n, tc.i, b.Slice(), want)
		}
		sharesAllChunksBut(t, "With", a, b, tc.i)
	}
}

// sharesAllChunksBut fails t unless grown holds every chunk of old but
// the one holding entry i, and a copy of that one.
func sharesAllChunksBut[T any](t *testing.T, what string, old, grown chunked[T], i int) {
	t.Helper()
	for k := range old.dir {
		if shared := grown.dir[k] == old.dir[k]; shared == (k == i>>chunkBits) {
			t.Errorf("%s of entry %d: chunk %d shared=%v", what, i, k, shared)
		}
	}
}
