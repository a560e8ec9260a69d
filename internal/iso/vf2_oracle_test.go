package iso

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"graphcache/internal/graph"
)

// Differential oracle for the matcher: VF2, FindEmbedding, CountEmbeddings
// and budgeted VF2 against a brute-force enumeration of every injective
// label-preserving mapping, with Ullmann as a third opinion, over all four
// graph kinds (undirected / directed × plain / edge-labelled). The pairs
// come out of a byte string, so the seeded test and FuzzVF2 run one
// routine over one decoder.

// byteSrc hands out the bytes of a fuzz input one at a time, then zeros.
type byteSrc struct {
	b []byte
	i int
}

func (s *byteSrc) next() int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1])
}

// decodeGraph reads one graph of at most maxN vertices: size, label
// alphabet (1–3), edge density (25/50/75 %), then a label per vertex and
// a byte per vertex pair. Small alphabets and sizes 0 and 1 come up often;
// low densities leave the graph disconnected.
func decodeGraph(s *byteSrc, directed, elabelled bool, maxN int) *graph.Graph {
	n := s.next() % (maxN + 1)
	alphabet, density := 1+s.next()%3, 1+s.next()%3
	b := graph.NewBuilder(n)
	if directed {
		b.Directed()
	}
	for v := 0; v < n; v++ {
		b.SetLabel(v, graph.Label(s.next()%alphabet))
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || (!directed && u > v) {
				continue
			}
			x := s.next()
			if x%4 >= density {
				continue
			}
			if elabelled {
				b.AddLabeledEdge(u, v, graph.Label(x>>2%3)) // 0 is "unlabelled"
			} else {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

// decodePair reads the graph kind from the first byte, then a pattern of
// up to 5 vertices and a target of up to 7, so p larger than t occurs.
func decodePair(data []byte) (p, t *graph.Graph) {
	s := &byteSrc{b: data}
	kind := s.next()
	directed, elabelled := kind&1 != 0, kind&2 != 0
	p = decodeGraph(s, directed, elabelled, 5)
	t = decodeGraph(s, directed, elabelled, 7)
	return p, t
}

// isEmbedding reports whether f maps p into t injectively, preserving
// vertex labels, arcs (edges, when undirected) and their labels.
func isEmbedding(p, t *graph.Graph, f []int) bool {
	if len(f) != p.N() {
		return false
	}
	used := make(map[int]bool, len(f))
	for u, fu := range f {
		if fu < 0 || fu >= t.N() || used[fu] || p.Label(u) != t.Label(fu) {
			return false
		}
		used[fu] = true
	}
	for u := 0; u < p.N(); u++ {
		for _, v := range p.OutNeighbors(u) {
			if !t.HasEdge(f[u], f[v]) || p.EdgeLabel(u, int(v)) != t.EdgeLabel(f[u], f[v]) {
				return false
			}
		}
	}
	return true
}

// bruteCount is the reference every matcher test compares against: it
// enumerates every injective mapping V(p) → V(t) and counts the embeddings
// among them. Only usable for tiny graphs.
func bruteCount(p, t *graph.Graph) int {
	if p.Directed() != t.Directed() {
		return 0
	}
	f := make([]int, p.N())
	used := make([]bool, t.N())
	var rec func(u int) int
	rec = func(u int) int {
		if u == p.N() {
			if isEmbedding(p, t, f) {
				return 1
			}
			return 0
		}
		total := 0
		for tv := 0; tv < t.N(); tv++ {
			if !used[tv] {
				used[tv], f[u] = true, tv
				total += rec(u + 1)
				used[tv] = false
			}
		}
		return total
	}
	return rec(0)
}

// refQuickReject is quickReject's predicate computed from scratch: sizes,
// then per label the k-th largest pattern degree against the k-th largest
// target degree.
func refQuickReject(p, t *graph.Graph) bool {
	if p.Directed() != t.Directed() || p.N() > t.N() || p.M() > t.M() {
		return true
	}
	byLabel := func(g *graph.Graph) map[graph.Label][]int {
		m := map[graph.Label][]int{}
		for v := 0; v < g.N(); v++ {
			m[g.Label(v)] = append(m[g.Label(v)], g.Degree(v))
		}
		for _, ds := range m {
			sort.Sort(sort.Reverse(sort.IntSlice(ds)))
		}
		return m
	}
	td := byLabel(t)
	for l, pds := range byLabel(p) {
		if len(td[l]) < len(pds) {
			return true
		}
		for k, d := range pds {
			if td[l][k] < d {
				return true
			}
		}
	}
	return false
}

// checkPair holds every entry point of the matcher to the brute-force
// count, which it returns.
func checkPair(tb testing.TB, p, t *graph.Graph) int {
	tb.Helper()
	describe := func() string {
		var sb strings.Builder
		sb.WriteString("pattern:\n")
		graph.WriteGraph(&sb, p)
		sb.WriteString("target:\n")
		graph.WriteGraph(&sb, t)
		return sb.String()
	}
	want := bruteCount(p, t)

	if got, ref := quickReject(p, t), refQuickReject(p, t); got != ref || (got && want > 0) {
		tb.Fatalf("quickReject = %v, reference %v, brute force counts %d embeddings\n%s", got, ref, want, describe())
	}
	ok, st := VF2(p, t, Options{})
	if st.Aborted || ok != (want > 0) {
		tb.Fatalf("VF2 = %v (stats %+v), brute force counts %d embeddings\n%s", ok, st, want, describe())
	}
	if u, _ := Ullmann(p, t, Options{}); u != (want > 0) {
		tb.Fatalf("Ullmann = %v, brute force counts %d embeddings\n%s", u, want, describe())
	}
	if f := FindEmbedding(p, t); (f != nil) != (want > 0) || (f != nil && !isEmbedding(p, t, f)) {
		tb.Fatalf("FindEmbedding = %v, brute force counts %d embeddings\n%s", f, want, describe())
	}
	if got := CountEmbeddings(p, t, 0); got != want {
		tb.Fatalf("CountEmbeddings = %d, brute force counts %d\n%s", got, want, describe())
	}
	if got := CountEmbeddings(p, t, 2); got != min(want, 2) {
		tb.Fatalf("CountEmbeddings(limit 2) = %d, brute force counts %d\n%s", got, want, describe())
	}
	// A budgeted run returns the true answer or gives up; it never answers wrongly.
	for budget := int64(1); budget <= st.Recursions+1; budget++ {
		ok, bst := VF2(p, t, Options{MaxRecursions: budget})
		switch {
		case bst.Aborted && ok:
			tb.Fatalf("budget %d: aborted search returned true\n%s", budget, describe())
		case bst.Aborted && budget >= st.Recursions:
			tb.Fatalf("budget %d: aborted, but the unbounded search took %d recursions\n%s", budget, st.Recursions, describe())
		case !bst.Aborted && ok != (want > 0):
			tb.Fatalf("budget %d: VF2 = %v, brute force counts %d embeddings\n%s", budget, ok, want, describe())
		}
	}
	return want
}

func TestVF2Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var kinds [4]int
	var positive, pBigger, disconnected, trivial int
	for trial := 0; trial < 4000; trial++ {
		data := make([]byte, 80)
		rng.Read(data)
		data[0] = byte(trial) // every kind equally often
		p, tg := decodePair(data)
		kinds[trial%4]++
		if checkPair(t, p, tg) > 0 {
			positive++
		}
		if p.N() > tg.N() {
			pBigger++
		}
		if p.N() > 1 && !p.IsConnected() {
			disconnected++
		}
		if p.N() <= 1 {
			trivial++
		}
	}
	t.Logf("kinds %v: %d positive, %d with p larger than t, %d disconnected patterns, %d of ≤ 1 vertex",
		kinds, positive, pBigger, disconnected, trivial)
	if positive < 400 || pBigger < 100 || disconnected < 100 || trivial < 100 {
		t.Error("the generator no longer covers every case the oracle is for")
	}
}

func FuzzVF2(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 2, 0, 0, 0, 0, 0, 0, 4, 0, 2})
	f.Add([]byte{3, 4, 2, 1, 0, 1, 0, 1, 4, 9, 0, 5, 8, 1, 0, 4, 6, 2, 1})
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 8; i++ {
		data := make([]byte, 80)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, tg := decodePair(data)
		checkPair(t, p, tg)
	})
}

// relabelled returns g with vertex v renamed perm[v] and, when bump is a
// vertex, that vertex's label changed: an isomorphic copy, or a near miss
// of the same size.
func relabelled(g *graph.Graph, perm []int, bump int) *graph.Graph {
	b := graph.NewBuilder(g.N())
	if g.Directed() {
		b.Directed()
	}
	for v := 0; v < g.N(); v++ {
		l := g.Label(v)
		if v == bump {
			l++
		}
		b.SetLabel(perm[v], l)
	}
	for _, e := range g.Edges() {
		if g.HasEdgeLabels() {
			b.AddLabeledEdge(perm[e[0]], perm[e[1]], g.EdgeLabel(e[0], e[1]))
		} else {
			b.AddEdge(perm[e[0]], perm[e[1]])
		}
	}
	return b.MustBuild()
}

// TestIsomorphicSymmetric: the cache's exact probe matches the cached
// pattern into the query, not the query into it, so Isomorphic must give
// one answer in both argument orders — the brute-force one — on graphs
// nobody has matched before, over all four kinds.
func TestIsomorphicSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var iso, near int
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, 60)
		rng.Read(data)
		s := &byteSrc{b: data}
		directed, elabelled := trial&1 != 0, trial&2 != 0
		g := decodeGraph(s, directed, elabelled, 6)
		others := []*graph.Graph{
			relabelled(g, rng.Perm(g.N()), -1),
			decodeGraph(s, directed, elabelled, 6),
		}
		if g.N() > 0 {
			others = append(others, relabelled(g, rng.Perm(g.N()), rng.Intn(g.N())))
		}
		for i, h := range others {
			want := g.N() == h.N() && g.M() == h.M() && bruteCount(g, h) > 0
			// Fresh copies each way: the second call must not ride on
			// summaries the first one memoized.
			if ab, ba := Isomorphic(g.WithID(1), h.WithID(2)), Isomorphic(h.WithID(3), g.WithID(4)); ab != want || ba != want {
				var sb strings.Builder
				graph.WriteGraph(&sb, g)
				graph.WriteGraph(&sb, h)
				t.Fatalf("trial %d: Isomorphic(g, h) = %v, Isomorphic(h, g) = %v, brute force says %v\n%s", trial, ab, ba, want, sb.String())
			}
			if want {
				iso++
			} else if i == 2 {
				near++
			}
		}
	}
	t.Logf("%d isomorphic pairs, %d near misses", iso, near)
	if iso < 2000 || near < 500 {
		t.Error("the generator no longer covers both outcomes")
	}
}
