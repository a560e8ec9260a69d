package ftv

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"graphcache/internal/bitset"
	"graphcache/internal/graph"
)

// Differential oracle for the GGSX layout. The reference knows nothing of
// tries, encodings or copy-on-write: it counts every directed simple path
// of a graph under its label sequence and applies the filter's definition
// (count dominance per feature) graph by graph.

// refCounts returns the occurrence count of every label path of g with at
// most maxLen edges, keyed by the printed (edge label, vertex label) steps.
func refCounts(g *graph.Graph, maxLen int) map[string]int32 {
	counts := make(map[string]int32)
	onPath := make([]bool, g.N())
	var extend func(v int, key string, edges int)
	extend = func(v int, key string, edges int) {
		counts[key]++
		if edges == maxLen {
			return
		}
		onPath[v] = true
		for _, u := range g.OutNeighbors(v) {
			if !onPath[u] {
				extend(int(u), fmt.Sprintf("%s %d:%d", key, g.EdgeLabel(v, int(u)), g.Label(int(u))), edges+1)
			}
		}
		onPath[v] = false
	}
	for v := 0; v < g.N(); v++ {
		extend(v, fmt.Sprintf("0:%d", g.Label(v)), 0)
	}
	return counts
}

// refCandidates applies the definition: for a subgraph query every query
// feature must occur at least as often in G, for a supergraph query every
// feature of G at least as often in the query. A tombstoned position
// (nil counts) has no features.
func refCandidates(dataset []map[string]int32, q map[string]int32, qt QueryType) *bitset.Set {
	out := bitset.New(len(dataset))
	for gid, g := range dataset {
		small, big := q, g
		if qt == Supergraph {
			small, big = g, q
		}
		dominated := true
		for f, c := range small {
			dominated = dominated && big[f] >= c
		}
		if dominated {
			out.Add(gid)
		}
	}
	return out
}

// oracleGraph draws a random tree on 2–7 vertices plus up to two extra
// edges over three vertex labels; kind bit 0 makes it directed, bit 1
// gives every edge one of two labels.
func oracleGraph(rng *rand.Rand, kind int) *graph.Graph {
	n := 2 + rng.Intn(6)
	b := graph.NewBuilder(n)
	if kind&1 != 0 {
		b.Directed()
	}
	for v := 0; v < n; v++ {
		b.SetLabel(v, graph.Label(rng.Intn(3)))
	}
	edge := func(u, v int) {
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		if kind&2 != 0 {
			b.AddLabeledEdge(u, v, graph.Label(1+rng.Intn(2)))
		} else {
			b.AddEdge(u, v)
		}
	}
	for v := 1; v < n; v++ {
		edge(rng.Intn(v), v)
	}
	for extra := rng.Intn(3); extra > 0; extra-- {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			edge(u, v)
		}
	}
	return b.MustBuild()
}

// layoutEvents records which re-encodings a chain of inserts went through.
type layoutEvents struct {
	listToBitmap, bitmapToList, newSlice, newWord, newNode bool
}

func (ev *layoutEvents) observe(before, after *GGSX) {
	ev.newNode = ev.newNode || after.nodes > before.nodes
	afterNodes := nodesByID(after)
	for id, old := range nodesByID(before) {
		nd := afterNodes[id]
		switch {
		case nd == old:
		case old.slices == nil && nd.slices != nil:
			ev.listToBitmap = true
		case old.slices != nil && nd.slices == nil:
			ev.bitmapToList = true
		case old.slices != nil:
			ev.newSlice = ev.newSlice || len(nd.slices.slice) > len(old.slices.slice)
			ev.newWord = ev.newWord || nd.slices.words > old.slices.words
		}
	}
}

// nodesByID returns x's trie nodes, the root excluded, indexed by node id.
func nodesByID(x *GGSX) []*trieNode {
	nodes := make([]*trieNode, x.nodes)
	x.root.each(func(nd *trieNode) { nodes[nd.id] = nd })
	return nodes
}

// runGGSXOracle builds an index over base graphs of the given kind (every
// seventh position a tombstone), grows it by the given number of
// WithGraph inserts (every fifth skipping a gid, which leaves an implicit
// tombstone), and checks Candidates against the reference bit for bit:
// on the newest snapshot after every insert, and on every snapshot of the
// chain once the last insert is done, when an insert that leaked into an
// older snapshot would show.
func runGGSXOracle(t *testing.T, seed int64, kind, base, inserts int) layoutEvents {
	t.Helper()
	const maxLen = 3
	rng := rand.New(rand.NewSource(seed))
	var dataset []*graph.Graph
	var counts []map[string]int32
	add := func(g *graph.Graph) {
		dataset = append(dataset, g)
		if g == nil {
			counts = append(counts, nil)
		} else {
			counts = append(counts, refCounts(g, maxLen))
		}
	}
	for i := 0; i < base; i++ {
		if i%7 == 3 {
			add(nil)
		} else {
			add(oracleGraph(rng, kind))
		}
	}
	type query struct {
		g      *graph.Graph
		counts map[string]int32
	}
	var queries []query
	for i := 0; i < 9; i++ {
		q := oracleGraph(rng, kind)
		if src := dataset[rng.Intn(max(base, 1)):]; i%3 > 0 && len(src) > 0 && src[0] != nil {
			q = src[0] // a dataset graph itself: every count is met with equality
			if i%3 == 2 {
				q, _ = q.InducedSubgraph(rng.Perm(q.N())[:1+rng.Intn(q.N())])
			}
		}
		queries = append(queries, query{q, refCounts(q, maxLen)})
	}
	check := func(x *GGSX, what string) {
		t.Helper()
		for qi, q := range queries {
			for _, qt := range []QueryType{Subgraph, Supergraph} {
				got, want := x.Candidates(q.g, qt), refCandidates(counts[:x.n], q.counts, qt)
				if !got.Equal(want) {
					t.Fatalf("seed %d kind %d: %s, n=%d, query %d (%s): candidates %v, reference %v",
						seed, kind, what, x.n, qi, qt, got, want)
				}
			}
		}
	}

	chain := []*GGSX{NewGGSX(dataset, maxLen)}
	check(chain[0], "built")
	var ev layoutEvents
	for i := 0; i < inserts; i++ {
		if i%5 == 4 {
			add(nil)
		}
		g := oracleGraph(rng, kind)
		if i%6 == 5 { // a label no graph has used yet: new trie nodes
			b := graph.NewBuilder(2).SetLabels([]graph.Label{graph.Label(10 + i), 0})
			g = b.AddEdge(0, 1).MustBuild()
		}
		last := chain[len(chain)-1]
		next := last.WithGraph(len(dataset), g).(*GGSX)
		add(g)
		ev.observe(last, next)
		check(next, fmt.Sprintf("after insert %d", i))
		if d := layoutDiff(next, NewGGSX(dataset, maxLen)); d != "" {
			t.Fatalf("seed %d kind %d: after insert %d, against a build: %s", seed, kind, i, d)
		}
		chain = append(chain, next)
	}
	for i, x := range chain {
		check(x, fmt.Sprintf("snapshot %d re-queried after %d inserts", i, inserts))
	}

	// Every index of the chain was checked against a build over the same
	// graphs above (layoutDiff: same node ids, same encoding per node,
	// every list the same packed bytes, every bitmap the same postings,
	// same IndexBytes); the grown one also has the build's forward rows.
	grown, rebuilt := chain[len(chain)-1], NewGGSX(dataset, maxLen)
	for gid := range dataset {
		if a, b := grown.forward.At(gid), rebuilt.forward.At(gid); !bytes.Equal(a, b) {
			t.Fatalf("seed %d kind %d: graph %d forward row %v after inserts, %v rebuilt", seed, kind, gid, decodeRow(a), decodeRow(b))
		}
	}
	return ev
}

// TestGGSXCandidatesMatchReference runs the oracle over undirected,
// directed and edge-labelled datasets long enough to cross two 64-graph
// word boundaries, and insists that the insert chain went through every
// re-encoding the layout has.
func TestGGSXCandidatesMatchReference(t *testing.T) {
	for kind, name := range []string{"undirected", "directed", "edge-labelled", "directed-edge-labelled"} {
		t.Run(name, func(t *testing.T) {
			ev := runGGSXOracle(t, int64(100+kind), kind, 50, 90)
			if ev != (layoutEvents{true, true, true, true, true}) {
				t.Errorf("insert chain missed a layout transition: %+v", ev)
			}
		})
	}
}

// FuzzGGSXCandidates lets the fuzzer pick the generator's seed, the
// dataset kind and the base/insert split of the same oracle.
func FuzzGGSXCandidates(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(8), uint8(8))
	f.Add(int64(2), uint8(1), uint8(0), uint8(20))
	f.Add(int64(3), uint8(2), uint8(30), uint8(3))
	f.Add(int64(4), uint8(3), uint8(63), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, kind, base, inserts uint8) {
		runGGSXOracle(t, seed, int(kind%4), int(base%64), int(inserts%24))
	})
}

// TestGGSXCandidatesMatchReferenceWideRows runs the reference over
// forward rows whose values take one, two and three uvarint bytes: trees
// over 600 vertex labels push trie ids past 16 383, and a one-label K₇
// counts 7·6·5·4 = 840 paths of three edges. Both facts are asserted
// first, so the case cannot pass on one-byte rows; then the candidates of
// a build, and of a WithGraph chain from its first half, must equal the
// reference in both directions.
func TestGGSXCandidatesMatchReferenceWideRows(t *testing.T) {
	const maxLen = 3
	rng := rand.New(rand.NewSource(131))
	tree := func(n int) *graph.Graph {
		b := graph.NewBuilder(n)
		for v := 0; v < n; v++ {
			b.SetLabel(v, graph.Label(rng.Intn(600)))
			if v > 0 {
				b.AddEdge(rng.Intn(v), v)
			}
		}
		return b.MustBuild()
	}
	k7 := graph.NewBuilder(7)
	for u := 0; u < 7; u++ {
		for v := u + 1; v < 7; v++ {
			k7.AddEdge(u, v)
		}
	}
	var dataset []*graph.Graph
	for i := 0; i < 400; i++ {
		dataset = append(dataset, tree(8))
	}
	dataset[250] = k7.MustBuild()

	x := NewGGSX(dataset, maxLen)
	var maxID, maxCount int32
	for gid := range dataset {
		for _, nc := range decodeRow(x.forward.At(gid)) {
			maxID, maxCount = max(maxID, nc.node), max(maxCount, nc.count)
		}
	}
	if maxID < 1<<14 || maxCount < 1<<7 {
		t.Fatalf("vacuous: largest node id %d (want ≥ %d), largest count %d (want ≥ %d)", maxID, 1<<14, maxCount, 1<<7)
	}

	counts := make([]map[string]int32, len(dataset))
	for gid, g := range dataset {
		counts[gid] = refCounts(g, maxLen)
	}
	queries := []*graph.Graph{dataset[250], dataset[3], dataset[199], dataset[399]}
	for _, src := range []*graph.Graph{dataset[250], dataset[250], dataset[17], dataset[398]} {
		q, err := src.InducedSubgraph(rng.Perm(src.N())[:2+rng.Intn(src.N()-1)])
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	queries = append(queries, tree(5), tree(9))
	check := func(x *GGSX, what string) {
		t.Helper()
		for qi, q := range queries {
			qc := refCounts(q, maxLen)
			for _, qt := range []QueryType{Subgraph, Supergraph} {
				if got, want := x.Candidates(q, qt), refCandidates(counts[:x.n], qc, qt); !got.Equal(want) {
					t.Fatalf("%s, query %d (%s): candidates %v, reference %v", what, qi, qt, got, want)
				}
			}
		}
	}
	check(x, "built")
	grown := NewGGSX(dataset[:200], maxLen)
	for gid := 200; gid < len(dataset); gid++ {
		grown = grown.WithGraph(gid, dataset[gid]).(*GGSX)
	}
	check(grown, "grown by 200 inserts")
	for gid := range dataset {
		if a, b := grown.forward.At(gid), x.forward.At(gid); !bytes.Equal(a, b) {
			t.Fatalf("graph %d forward row %v after inserts, %v built", gid, decodeRow(a), decodeRow(b))
		}
	}
}
