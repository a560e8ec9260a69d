package graph

import (
	"math/rand"
	"testing"
)

// refSignature counts a neighbour list the slow way: one counter per
// bucket, clipped at 7 when packed.
func refSignature(g *Graph, list []int32) uint64 {
	var count [16]int
	for _, w := range list {
		count[g.Label(int(w))&15]++
	}
	var s uint64
	for b, c := range count {
		s |= uint64(min(c, 7)) << (4 * b)
	}
	return s
}

// TestSignatures: every row's signature is the clipped per-bucket count of
// its neighbours' labels — out-rows over out-neighbours, a directed graph's
// in-rows over in-neighbours — on graphs dense enough to pass 7 in a
// bucket and with labels that collide mod 16; and SigDominates is the
// counter-by-counter comparison.
func TestSignatures(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var clipped, lopsided int
	for trial := 0; trial < 80; trial++ {
		directed := trial%2 == 1
		labels, edges := randomEdges(rng, 2+rng.Intn(40), directed)
		for v := range labels {
			if trial%4 < 2 {
				labels[v] = 0 // then one bucket takes every neighbour
			}
			labels[v] += Label(16 * rng.Intn(3)) // 0..2, 16..18, 32..34: three labels per bucket
		}
		g := buildFrom(labels, edges, directed)
		c := g.CSR()
		wantIn := 0
		if directed {
			wantIn = g.N()
		}
		if c.In != wantIn || len(c.Sig) != g.N()+c.In {
			t.Fatalf("trial %d: In = %d, %d signatures for %d vertices (directed %v)", trial, c.In, len(c.Sig), g.N(), directed)
		}
		for v := 0; v < g.N(); v++ {
			out, in := refSignature(g, g.OutNeighbors(v)), refSignature(g, g.InNeighbors(v))
			if c.Sig[v] != out || c.Sig[c.In+v] != in {
				t.Fatalf("trial %d: vertex %d signatures %016x / %016x, want %016x / %016x", trial, v, c.Sig[v], c.Sig[c.In+v], out, in)
			}
			if out != in {
				lopsided++
			}
			for s := out; s != 0; s >>= 4 {
				if s&15 == 7 {
					clipped++
				}
			}
		}
	}
	if clipped < 50 || lopsided < 50 {
		t.Errorf("only %d clipped counters and %d vertices whose two rows differ: the graphs no longer reach the cases", clipped, lopsided)
	}
	for trial := 0; trial < 20000; trial++ {
		var a, b uint64
		want := true
		for f := 0; f < 16; f++ {
			x, y := uint64(rng.Intn(8)), uint64(rng.Intn(8))
			if rng.Intn(4) > 0 {
				x = max(x, y) // mostly dominating, or random words almost never are
			}
			a, b = a|x<<(4*f), b|y<<(4*f)
			want = want && x >= y
		}
		if got := SigDominates(a, b); got != want {
			t.Fatalf("SigDominates(%016x, %016x) = %v", a, b, got)
		}
	}
}

// TestBytesCountsTheBlock pins the accounting the cache's memory budget
// runs on: 64 for the header, then the block — per row 8 B of signature
// and 4 B of offset, 4 B per neighbour entry, 2 B per label, each array
// rounded up to a word.
func TestBytesCountsTheBlock(t *testing.T) {
	ring := func(n int, directed bool) *Graph {
		b := NewBuilder(n)
		if directed {
			b.Directed()
		}
		for v := 0; v < n; v++ {
			b.AddEdge(v, (v+1)%n)
		}
		return b.MustBuild()
	}
	for _, tc := range []struct {
		name string
		g    *Graph
		want int
	}{
		{"empty", NewBuilder(0).MustBuild(), 64 + 8},                                                  // one offset
		{"12-ring", ring(12, false), 64 + 12*8 + (13+24+1)/2*8 + 3*8},                                 // 336; 472 as slices of slices
		{"directed 12-ring", ring(12, true), 64 + 24*8 + (25+24+1)/2*8 + 3*8},                         // a second set of rows, the same 24 entries
		{"edge-labelled", NewBuilder(2).AddLabeledEdge(0, 1, 5).MustBuild(), 64 + 2*8 + 3*8 + 8 + 16}, // 3 offsets + 2 entries; one map entry
	} {
		if got := tc.g.Bytes(); got != tc.want {
			t.Errorf("%s: Bytes = %d, want %d", tc.name, got, tc.want)
		}
	}
}
