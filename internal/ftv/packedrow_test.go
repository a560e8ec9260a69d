package ftv

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// nodeCount is one pair of a forward row, as decodeRow returns it.
type nodeCount struct{ node, count int32 }

// decodeRow unpacks a forward row with encoding/binary alone, apart from
// the decoder dominated runs: the first node's id, then the gap down to
// each next id, each followed by its count.
func decodeRow(row []byte) []nodeCount {
	var out []nodeCount
	var node uint64
	for len(row) > 0 {
		v, n := binary.Uvarint(row)
		c, m := binary.Uvarint(row[n:])
		if len(out) == 0 {
			node = v
		} else {
			node -= v
		}
		out = append(out, nodeCount{int32(node), int32(c)})
		row = row[n+m:]
	}
	return out
}

// TestPackedRowRoundTrip packs random rows — empty, one entry, and up to
// 300 entries with ids anywhere in [0, 2³¹−1] and counts in [1, 2³¹−1],
// each drawn from a one-, two- or three-byte range or the full one — and
// decodes them: the row must come back sorted by descending id. On rows
// with ids below 2¹⁶ (three uvarint bytes at most) dominated must then
// agree with a plain loop over the decoded row, against count arrays that
// meet every count exactly, and against copies with one count lowered or
// raised by one.
func TestPackedRowRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	draw := func(lo int64) int64 {
		switch rng.Intn(4) {
		case 0:
			return lo + rng.Int63n(1<<7-lo)
		case 1:
			return lo + rng.Int63n(1<<14-lo)
		case 2:
			return lo + rng.Int63n(1<<21-lo)
		}
		return lo + rng.Int63n(math.MaxInt32-lo+1)
	}
	counts := make([]int32, 1<<16)
	var widths [4]int // rows holding a value of 1, 2, 3 or more bytes
	for trial := 0; trial < 2000; trial++ {
		n := trial % 3 // empty and one-entry rows, then longer ones
		if n == 2 {
			n = 2 + rng.Intn(299)
		}
		small := trial%2 == 0
		seen := make(map[int32]bool)
		var want []nodeCount
		for len(want) < n {
			id := int32(draw(0))
			if small {
				id &= 1<<16 - 1
			}
			if !seen[id] {
				seen[id] = true
				want = append(want, nodeCount{id, int32(draw(1))})
			}
		}
		keys := make([]uint64, len(want))
		for i, nc := range want {
			keys[i] = uint64(nc.node)<<32 | uint64(nc.count)
		}
		slices.SortFunc(keys, func(a, b uint64) int { return cmp.Compare(b, a) })
		row := packRow(nil, keys)
		slices.SortFunc(want, func(a, b nodeCount) int { return cmp.Compare(b.node, a.node) })
		if got := decodeRow(row); !slices.Equal(got, want) {
			t.Fatalf("trial %d: packed %v, decoded %v", trial, want, got)
		}
		for i := 0; i < len(row); {
			_, w := binary.Uvarint(row[i:])
			widths[min(w, 4)-1]++
			i += w
		}
		if !small {
			continue
		}
		for _, nc := range want {
			counts[nc.node] = nc.count
		}
		plain := func() bool {
			for _, nc := range decodeRow(row) {
				if counts[nc.node] < nc.count {
					return false
				}
			}
			return true
		}
		if !dominated(row, counts) {
			t.Fatalf("trial %d: a count array meeting every count does not dominate %v", trial, want)
		}
		for k := 0; k < 4 && len(want) > 0; k++ {
			nc := want[rng.Intn(len(want))]
			for _, d := range []int32{-1, 1} {
				if c := nc.count + d; c >= 0 { // not past MaxInt32
					counts[nc.node] = c
					if got, want := dominated(row, counts), plain(); got != want {
						t.Fatalf("trial %d: node %d count %d against %d: dominated %t, plain loop %t", trial, nc.node, c, nc.count, got, want)
					}
				}
			}
			counts[nc.node] = nc.count
		}
		for _, nc := range want {
			counts[nc.node] = 0
		}
	}
	if widths[0] == 0 || widths[1] == 0 || widths[2] == 0 || widths[3] == 0 {
		t.Fatalf("vacuous: uvarints of 1, 2, 3 and more bytes: %v", widths)
	}
}
