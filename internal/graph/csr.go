package graph

import "unsafe"

// MaxVertices is the most vertices a graph may have: a neighbour entry is
// a uint16. Builder.Build and ReadAll refuse a larger graph with an error.
const MaxVertices = 1 << 16

// CSR is a graph's adjacency as the matcher reads it: every array of the
// graph's one block, worked out from the header by Graph.CSR, so a search
// indexes them without going back through the *Graph. Row v is vertex v's
// sorted out-neighbours (all its neighbours, when undirected); row In+v its
// in-neighbours — In is 0 for an undirected graph, whose in-rows are its
// out-rows, and N for a directed one. Everything is read-only.
type CSR struct {
	Labels []Label
	// Off has one entry per row plus a sentinel: row r is Nbr[Off[r]:Off[r+1]].
	Off []int32
	Nbr []uint16
	// Sig is the neighbour-label signature of each row, see SigDominates.
	Sig []uint64
	In  int
}

// Row returns row r, capped at its own length so that an append by a
// caller reallocates instead of writing into the next row.
func (c *CSR) Row(r int) []uint16 {
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
func signature(row []uint16, labels []Label) uint64 {
	var s uint64
	for _, w := range row {
		shift := uint(labels[w]&15) * 4
		if s>>shift&15 < sigMax {
			s += 1 << shift
		}
	}
	return s
}

// blockWords is the length in words of the block of a graph with n
// vertices, the given number of rows (n, or 2n when directed) and arcs
// neighbour entries. The labels, which a search reads first, start the
// block, then the signatures; the offsets and the neighbours follow end
// to end, so that 4 B of offset and 2 B of neighbour share their words.
// There is always at least the sentinel offset.
func blockWords(n, rows, arcs int) int {
	return (n+3)/4 + rows + (4*(rows+1)+2*arcs+7)/8
}

// newBlock allocates the zeroed block of a graph with n vertices, the
// given number of rows and arcs neighbour entries (see blockWords): the
// one allocation of a graph besides its header, which keeps only the
// pointer it returns and works out the four arrays from its counts.
func newBlock(n, rows, arcs int) *uint64 {
	return unsafe.SliceData(make([]uint64, blockWords(n, rows, arcs)))
}

// rows is the number of rows of g's block.
func (g *Graph) rows() int {
	if g.directed {
		return 2 * int(g.n)
	}
	return int(g.n)
}

// row returns row r of g's block, capped as CSR.Row caps it. It slices
// the run of uint16s from the offsets to the row's end, where the offsets
// are the first 2·(rows+1) entries, two to an int32, and cuts the row's
// start off that: a pointer to the row itself would leave the block for
// an empty last row. Written to inline into the accessors.
func (g *Graph) row(r int) []uint16 {
	rows := g.rows()
	p := unsafe.Add(unsafe.Pointer(g.block), 8*((int(g.n)+3)/4+rows))
	off := unsafe.Slice((*int32)(p), rows+1)
	k := 2 * (rows + 1)
	return unsafe.Slice((*uint16)(p), k+int(off[r+1]))[k+int(off[r]):]
}

// CSR returns the graph's arrays, for the matcher, worked out from the
// block pointer and the counts of the header. Callers must not modify
// them.
func (g *Graph) CSR() CSR {
	n, rows := int(g.n), g.rows()
	lw := (n + 3) / 4
	p := unsafe.Add(unsafe.Pointer(g.block), 8*(lw+rows))
	k := 2 * (rows + 1)
	return CSR{
		Labels: unsafe.Slice((*Label)(unsafe.Pointer(g.block)), n),
		Off:    unsafe.Slice((*int32)(p), rows+1),
		Nbr:    unsafe.Slice((*uint16)(p), k+2*int(g.m))[k:],
		Sig:    unsafe.Slice(g.block, lw+rows)[lw:],
		In:     rows - n,
	}
}

// blockBytes is the size of the allocation behind g's arrays.
func (g *Graph) blockBytes() int {
	return 8 * blockWords(int(g.n), g.rows(), 2*int(g.m))
}
