package core

import (
	"slices"
	"sync"

	"graphcache/internal/graph"
)

// featureVec is a sorted (feature-hash, count) vector of a graph's label
// paths up to the configured length. It is the cache's query-graph index
// (the iGQ idea [Wang et al., EDBT 2016] scaled down to the cache):
// dominance between feature vectors is a necessary condition for subgraph
// isomorphism between the underlying graphs, so most q↔h iso tests are
// avoided.
//
// Features hash the interleaved vertex/edge-label sequence of a simple
// path. For undirected graphs each path instance is counted once, in its
// lexicographically smaller direction (palindromes count twice — from
// both endpoints — consistently in every graph). For directed graphs every
// out-edge traversal is its own feature. Hash collisions can only merge
// features, which weakens but never unsounds the filter: dominance remains
// necessary because embeddings map counted traversals to counted
// traversals with identical sequences.
type featureVec []featureCount

type featureCount struct {
	hash  uint64
	count int32
}

// featScratch is the reusable working state of one pathFeatures
// enumeration. The path hashes, the path-sequence buffer and the
// visited marks never escape — only the final sorted vector does — so
// they are pooled across queries (hot-path memory discipline, see
// doc.go).
type featScratch struct {
	hashes []uint64
	seq    []graph.Label
	inPath []bool
}

var featScratchPool = sync.Pool{New: func() any { return new(featScratch) }}

// pathFeatures enumerates simple paths of g with at most maxLen edges and
// returns the canonical feature vector: every counted path's hash goes
// into the scratch, which is sorted and run-length encoded.
func pathFeatures(g *graph.Graph, maxLen int) featureVec {
	sc := featScratchPool.Get().(*featScratch)
	hashes := sc.hashes[:0]
	// seq interleaves vertex and edge labels: v0, e01, v1, e12, v2, ...
	if cap(sc.seq) < 2*maxLen+1 {
		sc.seq = make([]graph.Label, 0, 2*maxLen+1)
	}
	seq := sc.seq[:0]
	if cap(sc.inPath) < g.N() {
		sc.inPath = make([]bool, g.N())
	}
	inPath := sc.inPath[:g.N()]
	for i := range inPath {
		inPath[i] = false
	}
	directed := g.Directed()

	var walk func(v, depth int)
	walk = func(v, depth int) {
		if directed || canonicalDir(seq) {
			hashes = append(hashes, hashSeq(seq))
		}
		if depth < maxLen {
			inPath[v] = true
			for _, w := range g.OutNeighbors(v) {
				if !inPath[w] {
					seq = append(seq, g.EdgeLabel(v, int(w)), g.Label(int(w)))
					walk(int(w), depth+1)
					seq = seq[:len(seq)-2]
				}
			}
			inPath[v] = false
		}
	}
	for v := 0; v < g.N(); v++ {
		seq = append(seq, g.Label(v))
		walk(v, 0)
		seq = seq[:0]
	}

	slices.Sort(hashes)
	distinct := 0
	for i, h := range hashes {
		if i == 0 || h != hashes[i-1] {
			distinct++
		}
	}
	out := make(featureVec, 0, distinct)
	for i := 0; i < len(hashes); {
		j := i + 1
		for j < len(hashes) && hashes[j] == hashes[i] {
			j++
		}
		out = append(out, featureCount{hashes[i], int32(j - i)})
		i = j
	}
	sc.hashes, sc.seq = hashes[:0], seq[:0]
	featScratchPool.Put(sc)
	return out
}

// canonicalDir reports whether seq ≤ its reversal lexicographically, so
// each undirected path contributes exactly once (palindromes pass in both
// directions but are enumerated twice, keeping counts consistent across
// graphs). The interleaved layout reverses into the opposite traversal's
// interleaved layout, so plain slice comparison suffices.
func canonicalDir(seq []graph.Label) bool {
	for i, j := 0, len(seq)-1; i < j; i, j = i+1, j-1 {
		if seq[i] != seq[j] {
			return seq[i] < seq[j]
		}
	}
	return true
}

// hashSeq hashes a label sequence (FNV-1a over labels with a length tag).
func hashSeq(seq []graph.Label) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h ^= uint64(len(seq))
	h *= prime64
	for _, l := range seq {
		h ^= uint64(l)
		h *= prime64
	}
	return h
}

// bits blooms the feature hashes into a 64-bit mask: if v is dominated by
// o then bits(v) &^ bits(o) == 0, so the mask refutes dominance with one
// AND-NOT before the linear merge runs.
func (v featureVec) bits() uint64 {
	var b uint64
	for _, fc := range v {
		b |= 1 << (fc.hash >> 58)
	}
	return b
}

// dominatedBy reports whether every feature of v occurs in o with at least
// the same count — necessary for v's graph to embed into o's graph.
// Both vectors are hash-sorted, so this is a linear merge.
func (v featureVec) dominatedBy(o featureVec) bool {
	j := 0
	for _, fc := range v {
		for j < len(o) && o[j].hash < fc.hash {
			j++
		}
		if j >= len(o) || o[j].hash != fc.hash || o[j].count < fc.count {
			return false
		}
	}
	return true
}
