package graph

import (
	"math/rand"
	"slices"
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
		plan := g.MatchPlan()

		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		if again := buildFrom(labels, edges, directed).MatchPlan(); !slices.Equal(plan, again) {
			t.Fatalf("trial %d: plan depends on edge insertion order:\n%v\n%v", trial, plan, again)
		}
		if c := g.WithID(99); len(plan) > 0 && &c.MatchPlan()[0] != &plan[0] {
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
		counts := g.LabelCounts()
		for i, s := range plan {
			earliest := -1 // earliest-ordered neighbour of s.V, either direction
			for _, w := range append(slices.Clone(g.OutNeighbors(int(s.V))), g.InNeighbors(int(s.V))...) {
				if pos[w] < i && (earliest < 0 || pos[w] < pos[int32(earliest)]) {
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
// spare capacity (Bytes counts 4 B per entry and nothing else), and
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
			for _, list := range [][]int32{g.OutNeighbors(u), g.InNeighbors(u)} {
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
