// Package ftv implements "Method M" of GraphCache: filter-then-verify
// (FTV) subgraph/supergraph query processing over a graph dataset.
//
// A Filter prunes the dataset to a candidate set C_M that provably
// contains the query's full answer set; a verifier (VF2 by default) then
// tests each candidate. Two filters are provided, one for each of the
// paper's two classes of Method M:
//
//   - GGSX: a from-scratch implementation of the GraphGrepSX idea
//     (Bonnici et al., PRIB 2010): a suffix trie over vertex-label paths of
//     bounded length with per-graph occurrence counts. This is the Method M
//     the demo deployment uses. At path length 1 it is the cheap
//     label-level filter: its length-0 and length-1 path counts imply the
//     label multiset, |V| and |E| dominance.
//   - NoFilter: no pruning — Method M degenerates to a pure SI algorithm.
//
// Filtering is sound in both query directions: for a subgraph query the
// candidates are graphs whose features dominate the query's; for a
// supergraph query, graphs whose features are dominated by the query's.
package ftv

import (
	"fmt"

	"graphcache/internal/bitset"
	"graphcache/internal/graph"
)

// QueryType distinguishes the two query semantics of the paper.
type QueryType uint8

const (
	// Subgraph queries return dataset graphs containing the pattern.
	Subgraph QueryType = iota
	// Supergraph queries return dataset graphs contained in the pattern.
	Supergraph
)

// String returns "subgraph" or "supergraph".
func (t QueryType) String() string {
	if t == Supergraph {
		return "supergraph"
	}
	return "subgraph"
}

// Filter narrows a dataset to a candidate set guaranteed to contain the
// query's answer set (no false negatives; false positives are verified
// away later).
type Filter interface {
	// Candidates returns the candidate set for query q as a bitset over
	// dataset positions. Implementations must not retain q.
	Candidates(q *graph.Graph, qt QueryType) *bitset.Set
	// WithGraph returns a NEW filter whose candidate sets (after the
	// method's live-id mask) are identical to rebuilding the filter from
	// scratch over the dataset with g appended at position gid, without
	// re-indexing any existing graph. It is copy-on-write: the receiver
	// is never modified, so snapshots holding it keep answering for their
	// own epoch, and the returned filter shares all untouched index
	// structure with the receiver. gid must be ≥ the filter's current
	// dataset size (additions only ever append — ids are never reused);
	// positions between the old size and gid are indexed as tombstones.
	// Method.AddGraph takes this path, and only this one. GGSX copies
	// only what g touches — its trie nodes and one chunk of each
	// per-graph array (the GGSX comment has the rules).
	WithGraph(gid int, g *graph.Graph) Filter
	// IndexBytes estimates the heap footprint of the filter's index —
	// the space-overhead series of experiment EXP-II.
	IndexBytes() int
}

// NoFilter performs no pruning: every dataset graph is a candidate.
// Method M with NoFilter is a plain SI algorithm in the paper's taxonomy.
type NoFilter struct {
	n int
}

// NewNoFilter returns a NoFilter for a dataset of n graphs.
func NewNoFilter(n int) *NoFilter { return &NoFilter{n: n} }

// IndexBytes implements Filter.
func (f *NoFilter) IndexBytes() int { return 0 }

// Candidates implements Filter.
func (f *NoFilter) Candidates(q *graph.Graph, qt QueryType) *bitset.Set {
	return bitset.NewFull(f.n)
}

// WithGraph implements Filter: a NoFilter only tracks the id space
// (tombstones are masked by the method's live set either way).
func (f *NoFilter) WithGraph(gid int, g *graph.Graph) Filter {
	if gid < f.n {
		panic(fmt.Sprintf("ftv: NoFilter.WithGraph gid %d is inside the indexed id space [0,%d) — additions only append", gid, f.n))
	}
	return &NoFilter{n: gid + 1}
}
