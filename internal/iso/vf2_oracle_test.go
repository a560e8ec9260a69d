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
// routine over one decoder. Half the pairs are tiny random graphs; the
// other half (decodeHubPair) are built around a hub vertex to reach what
// tiny graphs cannot: the saturation and the bucket collisions of the
// neighbour-label signature (graph.SigDominates).

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

// decodePair reads the graph kind and the generator from the first byte,
// then either a hub pair or a pattern of up to 5 vertices and a target of
// up to 7, so p larger than t occurs.
func decodePair(data []byte) (p, t *graph.Graph) {
	s := &byteSrc{b: data}
	kind := s.next()
	directed, elabelled := kind&1 != 0, kind&2 != 0
	if kind&4 != 0 {
		return decodeHubPair(s, directed, elabelled)
	}
	p = decodeGraph(s, directed, elabelled, 5)
	t = decodeGraph(s, directed, elabelled, 7)
	return p, t
}

// hubLabels are the labels of a hub pair: four that share signature
// bucket 0, taken seven times in eight, and two that share bucket 1. Even
// vertices draw from the first row and odd ones from the second, so no
// label takes more than half the vertices and the embeddings of a star
// stay countable.
var hubLabels = [2][8]graph.Label{{0, 32, 0, 32, 0, 32, 32, 1}, {16, 48, 16, 48, 16, 48, 48, 17}}

// decodeHubPair reads a target of 11–13 vertices whose vertex 0 is joined
// to nearly all of the others (either way round, when directed,
// so in- and out-neighbourhoods differ) with a few edges among the rest,
// then a pattern cut out of it — most vertices, most of the edges between
// them — and spoilt in one of three ways or not at all: one vertex
// relabelled inside its bucket, which the signature cannot see; one more
// leaf on vertex 0 than the target may have, which a saturated counter
// cannot see either; one arc reversed or one edge relabelled.
func decodeHubPair(s *byteSrc, directed, elabelled bool) (p, t *graph.Graph) {
	n := 11 + s.next()%3
	type arc struct {
		u, v int
		l    graph.Label
	}
	labels := make([]graph.Label, n)
	var arcs []arc
	add := func(u, v, x int) {
		if directed && x>>3&1 != 0 {
			u, v = v, u
		}
		arcs = append(arcs, arc{u, v, graph.Label(x >> 5 % 3)})
	}
	for v := 0; v < n; v++ {
		x := s.next()
		labels[v] = hubLabels[v&1][x%8]
		if v > 0 && x>>3%16 != 0 {
			add(0, v, s.next())
		}
	}
	for u := 1; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if x := s.next(); x%8 == 1 {
				add(u, v, x)
			}
		}
	}
	build := func(labels []graph.Label, arcs []arc) *graph.Graph {
		b := graph.NewBuilder(len(labels)).SetLabels(labels)
		if directed {
			b.Directed()
		}
		for _, a := range arcs {
			if elabelled {
				b.AddLabeledEdge(a.u, a.v, a.l)
			} else {
				b.AddEdge(a.u, a.v)
			}
		}
		return b.MustBuild()
	}
	t = build(labels, arcs)

	keep := make([]int, n) // target vertex -> pattern vertex or -1
	var pLabels []graph.Label
	for v := range keep {
		keep[v] = -1
		if x := s.next(); x%8 != 1 {
			keep[v] = len(pLabels)
			pLabels = append(pLabels, labels[v])
		}
	}
	var pArcs []arc
	for _, a := range arcs {
		if x := s.next(); keep[a.u] >= 0 && keep[a.v] >= 0 && x%16 != 1 {
			pArcs = append(pArcs, arc{keep[a.u], keep[a.v], a.l})
		}
	}
	switch x := s.next(); {
	case x%4 == 1 && len(pLabels) > 0:
		pLabels[x>>2%len(pLabels)] ^= 16
	case x%4 == 2 && keep[0] >= 0:
		pLabels = append(pLabels, hubLabels[x>>2&1][0])
		pArcs = append(pArcs, arc{keep[0], len(pLabels) - 1, 0})
	case x%4 == 3 && len(pArcs) > 0:
		a := &pArcs[x>>2%len(pArcs)]
		a.u, a.v, a.l = a.v, a.u, (a.l+1)%3
	}
	return build(pLabels, pArcs), t
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

// prunedCount counts what bruteCount counts, fast enough for the hub
// pairs: it assigns pattern vertices in id order and drops a prefix as
// soon as a label or an arc between two assigned vertices fails.
func prunedCount(p, t *graph.Graph) int {
	if p.Directed() != t.Directed() {
		return 0
	}
	f := make([]int, p.N())
	used := make([]bool, t.N())
	arcsHold := func(u int) bool {
		for _, w := range p.OutNeighbors(u) {
			if int(w) < u && (!t.HasEdge(f[u], f[w]) || p.EdgeLabel(u, int(w)) != t.EdgeLabel(f[u], f[w])) {
				return false
			}
		}
		for _, w := range p.InNeighbors(u) {
			if int(w) < u && (!t.HasEdge(f[w], f[u]) || p.EdgeLabel(int(w), u) != t.EdgeLabel(f[w], f[u])) {
				return false
			}
		}
		return true
	}
	var rec func(u int) int
	rec = func(u int) int {
		if u == p.N() {
			return 1
		}
		total := 0
		for tv := 0; tv < t.N(); tv++ {
			if f[u] = tv; !used[tv] && p.Label(u) == t.Label(tv) && arcsHold(u) {
				used[tv] = true
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
	want := prunedCount(p, t)
	if t.N() <= 7 {
		if brute := bruteCount(p, t); brute != want {
			tb.Fatalf("the two references disagree: pruned %d, brute force %d\n%s", want, brute, describe())
		}
	}

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

// bucketStats reads off a graph what the signature has to survive: the
// most neighbours any row has in one bucket, whether some row holds two
// different labels in one bucket, and whether some vertex's in-row and
// out-row have different signatures.
func bucketStats(g *graph.Graph) (most int, collides, lopsided bool) {
	c := g.CSR()
	for r := range c.Sig {
		var count [16]int
		var first [16]graph.Label
		for _, w := range c.Row(r) {
			b := c.Labels[w] & 15
			if count[b] > 0 && first[b] != c.Labels[w] {
				collides = true
			}
			count[b]++
			first[b] = c.Labels[w]
			most = max(most, count[b])
		}
	}
	for v := 0; v < c.In; v++ {
		lopsided = lopsided || c.Sig[v] != c.Sig[c.In+v]
	}
	return most, collides, lopsided
}

func TestVF2Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var kinds [8]int
	var positive, pBigger, disconnected, trivial int
	// Hub pairs, by what they put the signature through; [0] counts the
	// pairs with an embedding, [1] those without.
	var saturated, pSaturated, collide, lopsided, elabelled [2]int
	for trial := 0; trial < 4000; trial++ {
		data := make([]byte, 140)
		rng.Read(data)
		data[0] = byte(trial) // every kind and both generators equally often
		p, tg := decodePair(data)
		kinds[trial%8]++
		miss := 1
		if checkPair(t, p, tg) > 0 {
			positive++
			miss = 0
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
		if trial&4 == 0 {
			continue
		}
		pMost, pCollides, pLop := bucketStats(p)
		tMost, tCollides, tLop := bucketStats(tg)
		if tMost > 7 {
			saturated[miss]++
		}
		if pMost > 7 {
			pSaturated[miss]++
		}
		if pCollides && tCollides {
			collide[miss]++
		}
		if pLop && tLop {
			lopsided[miss]++
		}
		if p.HasEdgeLabels() && tg.HasEdgeLabels() {
			elabelled[miss]++
		}
	}
	t.Logf("kinds %v: %d positive, %d with p larger than t, %d disconnected patterns, %d of ≤ 1 vertex",
		kinds, positive, pBigger, disconnected, trivial)
	t.Logf("hub pairs [embeds, does not]: %v with > 7 neighbours in a bucket of the target, %v of the pattern too, "+
		"%v with two labels in one bucket, %v directed with in- and out-signatures apart, %v edge-labelled",
		saturated, pSaturated, collide, lopsided, elabelled)
	if positive < 400 || pBigger < 100 || disconnected < 100 || trivial < 100 {
		t.Error("the generator no longer covers every case the oracle is for")
	}
	for _, c := range [][2]int{saturated, pSaturated, collide, lopsided, elabelled} {
		if c[0] < 50 || c[1] < 50 {
			t.Error("the hub generator no longer reaches every edge of the signature on both outcomes")
		}
	}
}

func FuzzVF2(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 2, 0, 0, 0, 0, 0, 0, 4, 0, 2})
	f.Add([]byte{3, 4, 2, 1, 0, 1, 0, 1, 4, 9, 0, 5, 8, 1, 0, 4, 6, 2, 1})
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 16; i++ {
		data := make([]byte, 140)
		rng.Read(data)
		data[0] = byte(i) // both generators, every kind
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
