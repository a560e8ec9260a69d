package ftv

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// decodeList unpacks a packed list allocation with encoding/binary alone:
// the header — the length of what follows it, the posting count, the last
// gid, the digit byte — and the postings, each a gap up from the previous
// gid (−1 before the first) and a count.
func decodeList(t *testing.T, b []byte) (n, last uint64, digits byte, ps []posting) {
	t.Helper()
	rest, k := binary.Uvarint(b)
	if k <= 0 || uint64(len(b)-k) != rest {
		t.Fatalf("list % x: leading length %d, %d bytes follow it", b, rest, len(b)-k)
	}
	b = b[k:]
	n, k = binary.Uvarint(b)
	b = b[k:]
	last, k = binary.Uvarint(b)
	digits, b = b[k], b[k+1:]
	gid := int64(-1)
	for len(b) > 0 {
		gap, k := binary.Uvarint(b)
		c, m := binary.Uvarint(b[k:])
		gid += int64(gap)
		ps = append(ps, posting{int32(gid), int32(c)})
		b = b[k+m:]
	}
	return n, last, digits, ps
}

// TestPackedListRoundTrip packs random posting lists — empty, one posting,
// gid 0, gaps of one, two, three and five uvarint bytes, counts from 1 to
// 2³¹−1 — and decodes them: the header must carry the posting count, the
// last gid and the digits of the largest count, and the postings must
// come back in order through decodeList, listOf and all. The same list
// grown one posting at a time by addPosting, as WithGraph grows it, must
// come out byte for byte the list packed at once (through the bitmap
// encoding when the size rule flips it there). On lists with gids below
// 2¹⁶, andPostings must then agree with a plain loop over the postings,
// on random candidate words and thresholds at, below and above a count.
func TestPackedListRoundTrip(t *testing.T) {
	if listOf(nil).n != 0 || packedBytes(nil) != nil {
		t.Fatal("the nil list is not empty")
	}
	var empty postingList
	if empty.pack() != nil {
		t.Fatal("the empty list packs to an allocation")
	}
	rng := rand.New(rand.NewSource(67))
	gapRanges := [][2]int64{{1, 1<<7 - 1}, {1 << 7, 1<<14 - 1}, {1 << 14, 1<<21 - 1}, {1 << 28, 1 << 30}}
	var gapWidths [6]int // gaps of 1, 2, 3, 4 and 5 bytes
	var countOne, countMax, flipped int
	acc, ref := make([]uint64, 1<<10), make([]uint64, 1<<10)
	for trial := 0; trial < 3000; trial++ {
		small, dense := trial%2 == 0, trial%4 == 0 // dense lists are small ones the size rule takes to bitmaps
		var want []posting
		gid := int64(-1)
		for n := []int{1, 1, 2 + rng.Intn(299)}[trial%3]; len(want) < n; {
			r := gapRanges[rng.Intn(2)]
			switch {
			case dense:
				r = [2]int64{1, 2}
			case !small:
				r = gapRanges[rng.Intn(len(gapRanges))]
			}
			gap := r[0] + rng.Int63n(r[1]-r[0]+1)
			switch {
			case len(want) > 0:
			case trial%6 == 0:
				gap = 1 // gid 0
			case trial%6 == 3:
				gap = math.MaxInt32 + 1 // the largest gid
			}
			if gid+gap >= 1<<16 && small || gid+gap > math.MaxInt32 {
				break
			}
			gid += gap
			gapWidths[(bits.Len64(uint64(gap))+6)/7]++
			c := int32(1 + rng.Intn(1<<uint(rng.Intn(9))))
			switch rng.Intn(16) {
			case 0:
				c = 1
				countOne++
			case 1:
				c = math.MaxInt32
				countMax++
			}
			want = append(want, posting{int32(gid), c})
		}

		var built postingList
		nd, scratch := &trieNode{}, []byte(nil)
		for _, p := range want {
			built.add(p.gid, p.count)
			scratch = nd.addPosting(p.gid, p.count, scratch)
		}
		packed := packedBytes(built.pack())
		n, last, digits, got := decodeList(t, packed)
		maxDigits := 0
		for _, p := range want {
			maxDigits = max(maxDigits, bits.Len32(uint32(p.count)))
		}
		if !slices.Equal(got, want) || n != uint64(len(want)) || last != uint64(want[len(want)-1].gid) || int(digits) != maxDigits {
			t.Fatalf("trial %d: packed %v, decoded %d postings, last gid %d, %d digits: %v", trial, want, n, last, digits, got)
		}
		l := listOf(&packed[0])
		if l.n != len(want) || l.last != want[len(want)-1].gid || l.digits != maxDigits || !slices.Equal(slices.Collect(l.all()), want) {
			t.Fatalf("trial %d: packed %v, listOf reads %d postings, last gid %d, %d digits: %v", trial, want, l.n, l.last, l.digits, l)
		}
		grown := nd.list
		if nd.slices != nil {
			grown = nd.slices.postings()
			flipped++
		}
		if !bytes.Equal(packedBytes(grown), packed) {
			t.Fatalf("trial %d: grown a posting at a time % x, packed at once % x", trial, packedBytes(grown), packed)
		}

		if !small {
			continue
		}
		for k := 0; k < 4; k++ {
			c := want[rng.Intn(len(want))].count + int32(rng.Intn(3)) - 1
			c = max(c, 1)
			for i := range acc {
				acc[i] = rng.Uint64()
				ref[i] = 0
			}
			for _, p := range want {
				if p.count >= c {
					ref[p.gid>>6] |= 1 << (p.gid & 63)
				}
			}
			alive := false
			for i := range ref {
				ref[i] &= acc[i]
				alive = alive || ref[i] != 0
			}
			if got := andPostings(acc, &packed[0], c); got != alive || !slices.Equal(acc, ref) {
				t.Fatalf("trial %d: andPostings at count %d reports %t, plain loop %t (words equal: %t)", trial, c, got, alive, slices.Equal(acc, ref))
			}
		}
	}
	if gapWidths[1] == 0 || gapWidths[2] == 0 || gapWidths[3] == 0 || gapWidths[5] == 0 || countOne == 0 || countMax == 0 || flipped == 0 {
		t.Fatalf("vacuous: gaps by byte width %v, %d counts of 1, %d of 2³¹−1, %d lists grown into bitmaps", gapWidths, countOne, countMax, flipped)
	}
}
