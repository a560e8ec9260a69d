//go:build !race

package iso

import (
	"math/rand"
	"testing"

	"graphcache/internal/graph"
)

// Allocation budgets of the verification path. Excluded under -race,
// whose instrumentation distorts the accounting (sync.Pool drops items at
// random there).

// TestVF2AllocBudget: with both graphs' summaries memoized and the state
// pooled, a sub-iso test allocates nothing — found, not found or aborted.
func TestVF2AllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var pairs [][2]*graph.Graph
	for i := 0; i < 16; i++ {
		pairs = append(pairs, [2]*graph.Graph{randomGraph(rng, 8, 3, 0.3), randomGraph(rng, 40, 3, 0.1)})
		pairs = append(pairs, [2]*graph.Graph{randomDigraph(rng, 6, 2, 2, 0.3), randomDigraph(rng, 20, 2, 2, 0.2)})
	}
	for _, opts := range []Options{{}, {MaxRecursions: 5}} {
		i := 0
		run := func() {
			VF2(pairs[i%len(pairs)][0], pairs[i%len(pairs)][1], opts)
			i++
		}
		for range pairs {
			run() // memoize the summaries, fill the pool
		}
		if got := testing.AllocsPerRun(500, run); got != 0 {
			t.Errorf("VF2 with %+v allocates %.1f/op, budget 0", opts, got)
		}
	}
}

// TestBoundMatchAllocBudget: binding a pattern whose plan is memoized
// takes a matcher from the pool and allocates nothing, and neither does
// any test through it once its core slice has seen the largest target —
// targets nobody has matched before included: a test reads the block
// Build made and needs no summary of the target.
func TestBoundMatchAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomGraph(rng, 6, 3, 0.4)
	p.MatchPlan()
	var targets []*graph.Graph
	for i := 0; i < 32; i++ {
		targets = append(targets, randomGraph(rng, 10+rng.Intn(40), 3, 0.15))
	}
	m := Bind(p, Options{})
	m.Match(randomGraph(rng, 50, 3, 0.15))
	i := 0
	if got := testing.AllocsPerRun(500, func() {
		m.Match(targets[i%len(targets)])
		i++
	}); got != 0 {
		t.Errorf("a bound test allocates %.1f/op, budget 0", got)
	}
	m.Release()
	if got := testing.AllocsPerRun(500, func() {
		m := Bind(p, Options{MaxRecursions: 4})
		m.Match(targets[i%len(targets)])
		m.Release()
		i++
	}); got != 0 {
		t.Errorf("bind, test, release allocates %.1f/op, budget 0", got)
	}
}

// TestSummaryAllocBudget: what a graph nobody has matched yet pays on its
// first test: its packed plan, one allocation (the scratch it is planned
// in is pooled), where the O(n²) planner took three — the steps, their
// header and a scratch array. The target pays nothing.
func TestSummaryAllocBudget(t *testing.T) {
	base := randomGraph(rand.New(rand.NewSource(4)), 12, 3, 0.2)
	fresh := testing.AllocsPerRun(200, func() { base.WithID(0) })
	withPlan := testing.AllocsPerRun(200, func() { base.WithID(0).MatchPlan() })
	t.Logf("fresh graph: MatchPlan %.0f allocs", withPlan-fresh)
	if withPlan-fresh > 1 {
		t.Errorf("MatchPlan allocates %.0f on a fresh graph, budget 1", withPlan-fresh)
	}
}
