package ftv

// chunkBits sets the chunk size of a chunked array: 256 entries.
const (
	chunkBits = 8
	chunkLen  = 1 << chunkBits
)

// chunked is a copy-on-write array of n entries held in fixed 256-entry
// chunks behind a directory. With copies the directory and the one chunk
// it writes and shares every other chunk with the receiver, so a write
// costs ⌈n/256⌉ pointers plus one chunk however long the array is, and a
// value held by an older snapshot never changes. Entries past n in the
// last chunk are zero.
type chunked[T any] struct {
	dir []*[chunkLen]T
	n   int
}

// chunkedOf copies s into a chunked array.
func chunkedOf[T any](s []T) chunked[T] {
	dir := make([]*[chunkLen]T, (len(s)+chunkLen-1)>>chunkBits)
	for k := range dir {
		c := new([chunkLen]T)
		copy(c[:], s[k<<chunkBits:])
		dir[k] = c
	}
	return chunked[T]{dir, len(s)}
}

// Len returns the number of entries.
func (a chunked[T]) Len() int { return a.n }

// At returns entry i, 0 ≤ i < Len.
func (a chunked[T]) At(i int) T { return a.dir[i>>chunkBits][i&(chunkLen-1)] }

// With returns the array with entry i set to v, growing it to i+1 entries
// when i ≥ Len; the entries a growth skips read zero. The receiver is not
// written.
func (a chunked[T]) With(i int, v T) chunked[T] {
	k := i >> chunkBits
	dir := make([]*[chunkLen]T, max(len(a.dir), k+1))
	copy(dir, a.dir)
	for j := len(a.dir); j < k; j++ {
		dir[j] = new([chunkLen]T)
	}
	c := new([chunkLen]T)
	if k < len(a.dir) {
		*c = *a.dir[k]
	}
	c[i&(chunkLen-1)] = v
	dir[k] = c
	return chunked[T]{dir, max(a.n, i+1)}
}

// Slice returns the entries as a fresh slice.
func (a chunked[T]) Slice() []T {
	out := make([]T, a.n)
	for k, c := range a.dir {
		copy(out[k<<chunkBits:], c[:])
	}
	return out
}
