package graph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// randomEdges draws a random simple graph's vertex labels and edge list;
// directed ones may hold both arcs of a pair.
func randomEdges(rng *rand.Rand, n int, directed bool) ([]Label, [][2]int) {
	labels := make([]Label, n)
	for v := range labels {
		labels[v] = Label(rng.Intn(3))
	}
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && (directed || u < v) && rng.Intn(4) == 0 {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return labels, edges
}

func buildFrom(labels []Label, edges [][2]int, directed bool) *Graph {
	b := NewBuilder(len(labels)).SetLabels(labels)
	if directed {
		b.Directed()
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.MustBuild()
}

// stepsOf decodes every step of p.
func stepsOf(p Plan) []PlanStep {
	out := make([]PlanStep, p.Len())
	for i := range out {
		out[i] = p.Step(i)
	}
	return out
}

// labelCounts maps each label of g to its number of vertices.
func labelCounts(g *Graph) map[Label]int {
	c := make(map[Label]int)
	for _, l := range g.Labels() {
		c[l]++
	}
	return c
}

// referencePlan is the plan as MatchPlan's doc states it, by the O(n²)
// selection MatchPlan replaced: at every step, a scan of all unordered
// vertices for the one with the most ordered neighbours, then the rarest
// label, then the highest degree, then the lowest id.
func referencePlan(g *Graph) []PlanStep {
	n := g.N()
	plan := make([]PlanStep, 0, n)
	conn, anchor, rare := make([]int, n), make([]int32, n), make([]int, n)
	counts := labelCounts(g)
	for v := range rare {
		rare[v] = counts[g.Label(v)]
		anchor[v] = -1
	}
	before := func(v, b int) bool {
		if conn[v] != conn[b] {
			return conn[v] > conn[b]
		}
		if rare[v] != rare[b] {
			return rare[v] < rare[b]
		}
		return g.OutDegree(v)+g.InDegree(v) > g.OutDegree(b)+g.InDegree(b)
	}
	touch := func(list []uint16, a int32) {
		for _, w := range list {
			if anchor[w] < 0 {
				anchor[w] = a
			}
			if conn[w] >= 0 {
				conn[w]++
			}
		}
	}
	for len(plan) < n {
		best := -1
		for v := 0; v < n; v++ {
			if conn[v] >= 0 && (best < 0 || before(v, best)) {
				best = v
			}
		}
		plan = append(plan, PlanStep{int32(best), anchor[best]})
		conn[best] = -1
		touch(g.InNeighbors(best), int32(best)<<1|1)
		if g.directed {
			touch(g.OutNeighbors(best), int32(best)<<1)
		}
	}
	return plan
}

// planGraph draws a random graph for the planner tests: n vertices with
// labels from labelsFrom(rng), roughly deg arcs per vertex (so a small
// deg leaves it disconnected), directed and edge-labelled as asked.
func planGraph(rng *rand.Rand, n int, deg float64, directed, elabels bool, labelsFrom func(*rand.Rand) Label) *Graph {
	b := NewBuilder(n)
	if directed {
		b.Directed()
	}
	for v := 0; v < n; v++ {
		b.SetLabel(v, labelsFrom(rng))
	}
	if n < 2 {
		return b.MustBuild()
	}
	seen := make(map[[2]int]bool)
	for i := 0; i < int(deg*float64(n)/2); i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if !directed && u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		if elabels {
			b.AddLabeledEdge(u, v, Label(rng.Intn(3)))
		} else {
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}

// TestPlanMatchesReference: the one-pass planner orders every graph
// exactly as referencePlan does — same vertices, same anchors — over
// undirected, directed and edge-labelled graphs, connected or not, with
// few labels (many ties), many, and labels past the rarity count's
// 256-entry table, at sizes on both sides of the 128-vertex boundary
// between the two encodings.
func TestPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	alphabets := map[string]func(*rand.Rand) Label{
		"few":   func(r *rand.Rand) Label { return Label(r.Intn(3)) },
		"many":  func(r *rand.Rand) Label { return Label(r.Intn(40)) },
		"large": func(r *rand.Rand) Label { return Label(250 + r.Intn(12)) },
		"wide":  func(r *rand.Rand) Label { return Label(r.Intn(1 << 16)) },
	}
	sizes := []int{0, 1, 2, 3, 5, 8, 13, 35, 126, 127, 128, 129, 300}
	var graphs, wide, disconnected int
	for _, n := range sizes {
		for _, alphabet := range []string{"few", "many", "large", "wide"} {
			for _, deg := range []float64{0.5, 1.5, 3, 6} {
				for kind := 0; kind < 3; kind++ {
					g := planGraph(rng, n, deg, kind == 1, kind == 2, alphabets[alphabet])
					want, p := referencePlan(g), g.MatchPlan()
					if got := stepsOf(p); !slices.Equal(got, want) {
						t.Fatalf("n=%d %s labels, degree %.1f, kind %d: plan differs from the reference\ngot  %v\nwant %v", n, alphabet, deg, kind, got, want)
					}
					if p.wide != (n >= 128) {
						t.Fatalf("n=%d: wide=%v", n, p.wide)
					}
					graphs++
					if p.wide {
						wide++
					}
					if !g.IsConnected() {
						disconnected++
					}
				}
			}
		}
	}
	t.Logf("%d graphs, %d wide, %d disconnected", graphs, wide, disconnected)
	if wide == 0 || wide == graphs || disconnected == 0 {
		t.Fatalf("the sample misses a case: %d graphs, %d wide, %d disconnected", graphs, wide, disconnected)
	}
}

// TestPlanEncodingRoundTrip: every step put into either encoding comes
// back from Step unchanged, the narrow encoding's extremes (vertex 126,
// anchor 253, the unanchored -1) and the wide one's included.
func TestPlanEncodingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, n := range []int{1, 2, 126, 127, 128, 129, 1000} {
		p := newPlan(n)
		want := make([]PlanStep, n)
		for i := range want {
			max := int32(n)
			if n >= 128 && i%2 == 0 {
				max = 1<<30 - 1 // the wide encoding stores any int32
			}
			v := rng.Int31n(max)
			var anchor int32
			switch i % 3 {
			case 0:
				anchor = -1
			case 1:
				anchor = (max-1)<<1 | 1
			default:
				anchor = rng.Int31n(max)<<1 | rng.Int31n(2)
			}
			if i == 0 {
				v = max - 1
			}
			want[i] = PlanStep{v, anchor}
			p.put(i, want[i])
		}
		if got := stepsOf(p); !slices.Equal(got, want) {
			t.Fatalf("n=%d: round trip\ngot  %v\nwant %v", n, got, want)
		}
	}
}

// TestPlanDeterministic: the match plan is a function of the graph alone
// — the same whatever order the builder saw the edges in — it is a valid
// plan (a permutation whose anchors are earlier-ordered neighbours in the
// stated direction, rooted at a rarest label), and WithID shares it.
func TestPlanDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 400; trial++ {
		directed := trial%2 == 1
		labels, edges := randomEdges(rng, rng.Intn(10), directed)
		g := buildFrom(labels, edges, directed)
		plan := stepsOf(g.MatchPlan())

		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		if again := stepsOf(buildFrom(labels, edges, directed).MatchPlan()); !slices.Equal(plan, again) {
			t.Fatalf("trial %d: plan depends on edge insertion order:\n%v\n%v", trial, plan, again)
		}
		if c := g.WithID(99); c.MatchPlan().b != g.memoPlan.Load() {
			t.Fatalf("trial %d: WithID copy rebuilt the plan", trial)
		}

		if len(plan) != g.N() {
			t.Fatalf("trial %d: plan has %d steps for %d vertices", trial, len(plan), g.N())
		}
		pos := make(map[int32]int, len(plan))
		for i, s := range plan {
			if _, dup := pos[s.V]; dup || s.V < 0 || int(s.V) >= g.N() {
				t.Fatalf("trial %d: step %d repeats or invents vertex %d", trial, i, s.V)
			}
			pos[s.V] = i
		}
		counts := labelCounts(g)
		for i, s := range plan {
			earliest := -1 // earliest-ordered neighbour of s.V, either direction
			for _, w := range append(slices.Clone(g.OutNeighbors(int(s.V))), g.InNeighbors(int(s.V))...) {
				if pos[int32(w)] < i && (earliest < 0 || pos[int32(w)] < pos[int32(earliest)]) {
					earliest = int(w)
				}
			}
			switch {
			case s.Anchor < 0 && earliest >= 0:
				t.Fatalf("trial %d: step %d is unanchored but %d is ordered before it", trial, i, earliest)
			case s.Anchor < 0:
				for _, r := range plan[i:] {
					if counts[g.Label(int(r.V))] < counts[g.Label(int(s.V))] {
						t.Fatalf("trial %d: component root %d is not of the rarest label left", trial, s.V)
					}
				}
			case int(s.Anchor>>1) != earliest:
				t.Fatalf("trial %d: step %d anchors on %d, earliest-ordered neighbour is %d", trial, i, s.Anchor>>1, earliest)
			case s.Anchor&1 != 0 && !g.HasEdge(int(s.V), earliest), s.Anchor&1 == 0 && !g.HasEdge(earliest, int(s.V)):
				t.Fatalf("trial %d: step %d anchor direction names an arc that does not exist", trial, i)
			}
		}
	}
}

// TestBuildAdjacencyExact: every adjacency list is sorted and holds no
// spare capacity (Bytes counts 2 B per entry and nothing else), and
// HasEdge agrees with the edge list on lists short enough for its linear
// scan and long enough for its binary search.
func TestBuildAdjacencyExact(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 60; trial++ {
		directed := trial%2 == 1
		labels, edges := randomEdges(rng, 2+rng.Intn(40), directed)
		g := buildFrom(labels, edges, directed)
		has := make(map[[2]int]bool, 2*len(edges))
		for _, e := range edges {
			has[e] = true
			if !directed {
				has[[2]int{e[1], e[0]}] = true
			}
		}
		for u := 0; u < g.N(); u++ {
			for _, list := range [][]uint16{g.OutNeighbors(u), g.InNeighbors(u)} {
				if !slices.IsSorted(list) || cap(list) != len(list) {
					t.Fatalf("trial %d: vertex %d list %v: sorted=%v len=%d cap=%d", trial, u, list, slices.IsSorted(list), len(list), cap(list))
				}
			}
			for v := 0; v < g.N(); v++ {
				if g.HasEdge(u, v) != has[[2]int{u, v}] {
					t.Fatalf("trial %d: HasEdge(%d,%d) = %v", trial, u, v, g.HasEdge(u, v))
				}
			}
		}
	}
}

// TestConcurrentFirstFeatures: goroutines that ask a graph nobody has
// summarized yet for its feature vector, all at once, race on its first
// vector. Each must read the vector ExtractFeatures computes, the graph
// must end up holding that one vector, and a copy made by WithID must
// share it.
func TestConcurrentFirstFeatures(t *testing.T) {
	const goroutines = 16
	rng := rand.New(rand.NewSource(61))
	for round := 0; round < 12; round++ {
		directed := round%2 == 1
		labels, edges := randomEdges(rng, 4+rng.Intn(40), directed)
		g := buildFrom(labels, edges, directed)
		want := ExtractFeatures(g)
		got := make([]FeatureVector, goroutines)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[i] = g.Features()
			}()
		}
		close(start)
		wg.Wait()
		for i, fv := range got {
			if fv != want {
				t.Fatalf("round %d: goroutine %d read %+v, want %+v", round, i, fv, want)
			}
		}
		memo := g.memoFV.Load()
		if memo == nil || *memo != want {
			t.Fatalf("round %d: the graph holds %v, want %+v", round, memo, want)
		}
		if c := g.WithID(7); c.memoFV.Load() != memo || c.Features() != want {
			t.Fatalf("round %d: a WithID copy does not share the memoized vector", round)
		}
	}
}
