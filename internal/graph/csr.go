package graph

import "unsafe"

// CSR is a graph's adjacency as the matcher reads it: every array of the
// graph's one block, by value, so a search indexes them without going
// back through the *Graph. Row v is vertex v's sorted out-neighbours (all
// its neighbours, when undirected); row In+v its in-neighbours — In is 0
// for an undirected graph, whose in-rows are its out-rows, and N for a
// directed one. Everything is read-only.
type CSR struct {
	Labels []Label
	// Off has one entry per row plus a sentinel: row r is Nbr[Off[r]:Off[r+1]].
	Off []int32
	Nbr []int32
	// Sig is the neighbour-label signature of each row, see SigDominates.
	Sig []uint64
	In  int
}

// Row returns row r, capped at its own length so that an append by a
// caller reallocates instead of writing into the next row.
func (c *CSR) Row(r int) []int32 {
	lo, hi := c.Off[r], c.Off[r+1]
	return c.Nbr[lo:hi:hi]
}

// A signature packs sixteen 4-bit counters into a word: counter l&15
// holds how many vertices of the row carry a label l in that bucket,
// saturating at sigMax so the top bit of every counter stays clear.
const (
	sigMax  = 7
	sigHigh = 0x8888888888888888
)

// SigDominates reports whether every counter of t is at least its
// counterpart in p — what a target vertex must satisfy to host a pattern
// vertex, since distinct neighbours of the one map to distinct
// equally-labelled neighbours of the other. Labels that share a bucket and
// counts past sigMax only blur the test (both are monotone), never make it
// reject an embedding. Setting each counter's top bit in t before
// subtracting keeps borrows inside the counter; the bit survives exactly
// where t's counter was the larger or equal.
func SigDominates(t, p uint64) bool {
	return ((t|sigHigh)-p)&sigHigh == sigHigh
}

// signature computes the signature of one row.
func signature(row []int32, labels []Label) uint64 {
	var s uint64
	for _, w := range row {
		shift := uint(labels[w]&15) * 4
		if s>>shift&15 < sigMax {
			s += 1 << shift
		}
	}
	return s
}

// newBlock carves the arrays of a graph with n vertices, the given number
// of rows (n, or 2n when directed) and arcs neighbour entries out of one
// allocation, each starting on a word: labels, which a search reads first,
// then signatures, then offsets and neighbours. All come back zeroed, at
// exact length and capacity.
func newBlock(n, rows, arcs int) CSR {
	ints := rows + 1 + arcs
	labelWords, intWords := (n+3)/4, (ints+1)/2
	block := make([]uint64, labelWords+rows+intWords)
	i32 := unsafe.Slice((*int32)(unsafe.Pointer(&block[labelWords+rows])), ints)
	c := CSR{
		Sig: block[labelWords : labelWords+rows : labelWords+rows],
		Off: i32[: rows+1 : rows+1],
		Nbr: i32[rows+1:],
		In:  rows - n,
	}
	if n > 0 {
		c.Labels = unsafe.Slice((*Label)(unsafe.Pointer(&block[0])), n)
	}
	return c
}

// blockBytes is the size of the allocation behind c.
func (c *CSR) blockBytes() int {
	ints := len(c.Off) + len(c.Nbr)
	return 8 * (len(c.Sig) + (ints+1)/2 + (len(c.Labels)+3)/4)
}
