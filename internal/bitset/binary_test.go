package bitset

import (
	"strings"
	"testing"
)

// TestBinaryRoundTripPreservesContainer pins the GCS3 property the codec
// exists for: encode/decode returns an equal set in the SAME container,
// including the lazy nil payloads.
func TestBinaryRoundTripPreservesContainer(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Set
		mode  uint8
	}{
		{"empty sparse", func() *Set { return New(100) }, modeSparse},
		{"sparse", func() *Set {
			s := New(1000)
			for _, v := range []int{1, 5, 9, 500, 999} {
				s.Add(v)
			}
			return s
		}, modeSparse},
		{"nil dense", func() *Set {
			s := New(100)
			s.mode = modeDense
			return s
		}, modeDense},
		{"dense", func() *Set {
			s := New(300)
			s.mode = modeDense
			for i := 0; i < 300; i += 2 {
				s.Add(i)
			}
			return s
		}, modeDense},
		{"full", func() *Set { return NewFull(1 << 20) }, modeDense},
		{"capacity zero", func() *Set { return New(0) }, modeSparse},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig := tc.build()
			if orig.mode != tc.mode {
				t.Fatalf("builder produced mode %d, want %d", orig.mode, tc.mode)
			}
			buf := orig.AppendBinary(nil)
			if len(buf) != orig.BinarySize() {
				t.Fatalf("BinarySize %d != encoded length %d", orig.BinarySize(), len(buf))
			}
			got, n, err := FromBinary(buf)
			if err != nil {
				t.Fatalf("FromBinary: %v", err)
			}
			if n != len(buf) {
				t.Fatalf("consumed %d of %d bytes", n, len(buf))
			}
			if got.mode != orig.mode {
				t.Fatalf("container changed: mode %d, want %d", got.mode, orig.mode)
			}
			if !got.Equal(orig) {
				t.Fatalf("round trip changed contents")
			}
			if got.Len() != orig.Len() {
				t.Fatalf("capacity changed: %d, want %d", got.Len(), orig.Len())
			}
		})
	}
}

// TestBinaryDecodeFromStream checks FromBinary consumes exactly one set
// from a concatenation, the way the snapshot body section stores them.
func TestBinaryDecodeFromStream(t *testing.T) {
	a := New(64)
	a.Add(3)
	b := NewFull(128)
	buf := a.AppendBinary(nil)
	buf = b.AppendBinary(buf)
	buf = append(buf, 0xAA, 0xBB) // trailing junk must be left unconsumed

	gotA, n, err := FromBinary(buf)
	if err != nil {
		t.Fatalf("first decode: %v", err)
	}
	gotB, m, err := FromBinary(buf[n:])
	if err != nil {
		t.Fatalf("second decode: %v", err)
	}
	if !gotA.Equal(a) || !gotB.Equal(b) {
		t.Fatalf("stream decode changed contents")
	}
	if n+m != len(buf)-2 {
		t.Fatalf("consumed %d bytes, want %d", n+m, len(buf)-2)
	}
}

// TestBinaryRejectsInvalid sweeps malformed encodings: every one must be
// rejected with a descriptive error, never decoded into a set with broken
// invariants.
func TestBinaryRejectsInvalid(t *testing.T) {
	le32 := func(v uint32) []byte { return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)} }
	le64 := func(v uint64) []byte {
		out := make([]byte, 8)
		for i := range out {
			out[i] = byte(v >> (8 * i))
		}
		return out
	}
	enc := func(mode byte, capBits, count uint64, payload ...byte) []byte {
		buf := []byte{mode}
		buf = append(buf, le64(capBits)...)
		buf = append(buf, le64(count)...)
		return append(buf, payload...)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty input", nil, "truncated"},
		{"short header", []byte{0, 1, 2}, "truncated"},
		{"unknown mode", enc(9, 64, 0), "unknown container mode"},
		{"sparse payload truncated", enc(0, 64, 2, le32(1)...), "truncated"},
		{"sparse duplicate", enc(0, 64, 2, append(le32(5), le32(5)...)...), "strictly increasing"},
		{"sparse unsorted", enc(0, 64, 2, append(le32(6), le32(5)...)...), "strictly increasing"},
		{"sparse out of range", enc(0, 64, 1, le32(64)...), "out of range"},
		{"sparse huge count", enc(0, 64, 1<<60), "truncated"},
		{"dense word count mismatch", enc(1, 128, 1, le64(1)...), "needs 2"},
		{"dense tail bits set", enc(1, 60, 1, le64(1<<63)...), "tail bits"},
		// Mode byte 2 was the run container's tag, whose payload was
		// (uint32 start, uint32 end) spans. Every encoding carrying it,
		// well formed under the old codec or not, is refused by its mode.
		{"run well formed", enc(2, 64, 2, append(append(le32(0), le32(10)...), append(le32(20), le32(30)...)...)...), "unknown container mode 2"},
		{"run empty", enc(2, 64, 0), "unknown container mode 2"},
		{"run reversed bounds", enc(2, 64, 1, append(le32(5), le32(5)...)...), "unknown container mode 2"},
		{"run overlapping", enc(2, 64, 2, append(append(le32(0), le32(10)...), append(le32(9), le32(20)...)...)...), "unknown container mode 2"},
		{"run adjacent", enc(2, 64, 2, append(append(le32(0), le32(10)...), append(le32(10), le32(20)...)...)...), "unknown container mode 2"},
		{"run past capacity", enc(2, 64, 1, append(le32(0), le32(65)...)...), "unknown container mode 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := FromBinary(tc.data)
			if err == nil {
				t.Fatalf("decode accepted malformed input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
