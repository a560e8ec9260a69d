package graphcache_test

import (
	"bytes"
	"fmt"
	"testing"

	gc "graphcache"
)

func TestPublicQuickstartFlow(t *testing.T) {
	dataset := gc.GenerateMolecules(42, 60)
	method := gc.NewGGSXMethod(dataset, 3)
	cache, err := gc.NewCache(method, gc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	pattern := gc.ExtractPattern(7, dataset[0], 6)
	res, err := cache.Execute(pattern, gc.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answers.Contains(0) {
		t.Error("source graph must answer its own extracted pattern")
	}
	base := method.Run(pattern, gc.Subgraph)
	if !base.Answers.Equal(res.Answers) {
		t.Error("cache must match base method")
	}

	// Resubmission exact-hits.
	res2, err := cache.Execute(pattern, gc.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.ExactHit || res2.Tests != 0 {
		t.Errorf("resubmission: exact=%v tests=%d", res2.ExactHit, res2.Tests)
	}
}

func TestPublicGraphConstruction(t *testing.T) {
	g, err := gc.NewGraph([]gc.Label{1, 2, 3}, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Error("graph construction broken")
	}
	if _, err := gc.NewGraph([]gc.Label{1}, [][2]int{{0, 0}}); err == nil {
		t.Error("self-loop should error")
	}
	b := gc.NewBuilder(2)
	b.SetLabel(0, 5).SetLabel(1, 6).AddEdge(0, 1)
	g2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !gc.SubIso(g2, g2) {
		t.Error("SubIso self test failed")
	}
	if gc.Isomorphic(g, g2) {
		t.Error("different graphs reported isomorphic")
	}
}

func TestPublicDatasetIO(t *testing.T) {
	ds := gc.GenerateMolecules(1, 5)
	var buf bytes.Buffer
	if err := gc.WriteDataset(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := gc.ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 5 {
		t.Fatalf("round trip lost graphs: %d", len(back))
	}
	for i := range ds {
		if !gc.Isomorphic(ds[i], back[i]) {
			t.Fatalf("graph %d not preserved", i)
		}
	}
}

func TestPublicPolicies(t *testing.T) {
	for _, name := range gc.PolicyNames() {
		p, err := gc.NewPolicy(name)
		if err != nil || p == nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
	}
	cfg := gc.DefaultConfig()
	cfg.Policy = gc.NewLRU()
	dataset := gc.GenerateMolecules(2, 10)
	cache, err := gc.NewCache(gc.NewGGSXMethod(dataset, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cache.PolicyName() != "lru" {
		t.Error("policy not applied")
	}
}

func TestPublicMethodVariants(t *testing.T) {
	dataset := gc.GenerateMolecules(3, 20)
	pattern := gc.ExtractPattern(4, dataset[5], 5)
	var prev *gc.MethodResult
	for _, m := range []*gc.Method{
		gc.NewGGSXMethod(dataset, 3),
		gc.NewGGSXMethod(dataset, 1),
		gc.NewSIMethod(dataset),
	} {
		r := m.Run(pattern, gc.Subgraph)
		if prev != nil && !r.Answers.Equal(prev.Answers) {
			t.Fatalf("method %s disagrees", m.Name())
		}
		prev = r
	}
}

// TestPublicCacheHelpsAnyMethod: GC sits in front of either class of
// Method M, a label-level filter-then-verify method (GGSX at path length
// 1) or a filterless SI method, and finds sub and super hits over each.
// The stream nests patterns: a middle one, then one cut out of it (a sub
// hit on the middle), then the one it was cut out of (a super hit), and
// SelfCheck holds every answer to the uncached method's.
func TestPublicCacheHelpsAnyMethod(t *testing.T) {
	dataset := gc.GenerateMolecules(13, 40)
	var stream []*gc.Graph
	for i := 0; i < 6; i++ {
		big := gc.ExtractPattern(int64(200+i), dataset[i], 9)
		mid := gc.ExtractPattern(int64(300+i), big, 5)
		stream = append(stream, mid, gc.ExtractPattern(int64(400+i), mid, 2), big)
	}
	for _, m := range []*gc.Method{gc.NewGGSXMethod(dataset, 1), gc.NewSIMethod(dataset)} {
		cfg := gc.DefaultConfig()
		cfg.Window = 1
		cfg.SelfCheck = true
		cache, err := gc.NewCache(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range stream {
			res, err := cache.Execute(q, gc.Subgraph)
			if err != nil {
				t.Fatal(err)
			}
			if want := m.Run(q, gc.Subgraph).Answers; !res.Answers.Equal(want) {
				t.Fatalf("%s: query %d answers %v, want %v", m.Name(), i, res.Answers, want)
			}
		}
		if s := cache.Stats(); s.SubHits == 0 || s.SuperHits == 0 {
			t.Errorf("%s: %d sub and %d super hits over the nested stream, want at least one each", m.Name(), s.SubHits, s.SuperHits)
		}
	}
}

func TestPublicWorkloadGeneration(t *testing.T) {
	dataset := gc.GenerateMolecules(5, 30)
	cfg := gc.DefaultWorkloadConfig()
	cfg.Size = 25
	w, err := gc.GenerateWorkload(6, dataset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 25 {
		t.Fatalf("workload size %d", len(w.Queries))
	}
	method := gc.NewGGSXMethod(dataset, 3)
	cache, err := gc.NewCache(method, gc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		if _, err := cache.Execute(q.G, q.Type); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Stats().Queries != 25 {
		t.Error("monitor lost queries")
	}
}

// Custom policy through the public API only — the Figure 2(d) scenario.
type publicCustomPolicy struct{ evictions int }

func (p *publicCustomPolicy) Name() string                    { return "custom" }
func (p *publicCustomPolicy) UpdateCacheStaInfo(*gc.HitEvent) {}
func (p *publicCustomPolicy) ReplacedContent(entries []*gc.Entry, x int) []int {
	p.evictions += x
	out := make([]int, 0, x)
	for i := 0; i < x && i < len(entries); i++ {
		out = append(out, i)
	}
	return out
}

func TestPublicCustomPolicy(t *testing.T) {
	dataset := gc.GenerateMolecules(7, 20)
	cfg := gc.DefaultConfig()
	custom := &publicCustomPolicy{}
	cfg.Policy = custom
	cfg.Capacity = 3
	cfg.Window = 2
	cache, err := gc.NewCache(gc.NewGGSXMethod(dataset, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		pattern := gc.ExtractPattern(int64(100+i), dataset[i%len(dataset)], 3+i%4)
		if _, err := cache.Execute(pattern, gc.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
	if custom.evictions == 0 {
		t.Error("custom policy never consulted")
	}
	if cache.Len() > 3 {
		t.Error("capacity violated under custom policy")
	}
}

func TestPublicPersistence(t *testing.T) {
	dataset := gc.GenerateMolecules(11, 30)
	method := gc.NewGGSXMethod(dataset, 3)
	cfg := gc.DefaultConfig()
	cfg.Window = 1
	cache, err := gc.NewCache(method, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pattern := gc.ExtractPattern(12, dataset[4], 5)
	res1, err := cache.Execute(pattern, gc.Subgraph)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := cache.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := gc.NewCache(method, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ReadState(&buf); err != nil {
		t.Fatal(err)
	}
	res2, err := restored.Execute(pattern, gc.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.ExactHit || !res2.Answers.Equal(res1.Answers) {
		t.Error("restored cache did not serve the persisted query")
	}
}

func TestPublicCircuits(t *testing.T) {
	circuits := gc.GenerateCircuits(13, 20, gc.DefaultCircuitConfig())
	if len(circuits) != 20 {
		t.Fatal("wrong count")
	}
	for _, c := range circuits {
		if !c.Directed() || !c.HasEdgeLabels() {
			t.Fatal("circuit lost directedness or edge labels through the API")
		}
	}
	method := gc.NewGGSXMethod(circuits, 2)
	cache, err := gc.NewCache(method, gc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := gc.ExtractPattern(14, circuits[0], 3)
	res, err := cache.Execute(q, gc.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answers.Contains(0) {
		t.Error("source circuit missing from answers")
	}
}

// ExampleNewCache demonstrates the minimal end-to-end flow: resubmitting a
// query turns into an exact-match hit with zero sub-iso tests.
func ExampleNewCache() {
	dataset := gc.GenerateMolecules(42, 200)
	cache, err := gc.NewCache(gc.NewGGSXMethod(dataset, 4), gc.DefaultConfig())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	pattern := gc.ExtractPattern(7, dataset[0], 5)

	first, _ := cache.Execute(pattern, gc.Subgraph)
	again, _ := cache.Execute(pattern, gc.Subgraph)
	fmt.Println("first run exact hit:", first.ExactHit)
	fmt.Println("resubmission exact hit:", again.ExactHit, "with", again.Tests, "tests")
	fmt.Println("answers stable:", again.Answers.Equal(first.Answers))
	// Output:
	// first run exact hit: false
	// resubmission exact hit: true with 0 tests
	// answers stable: true
}
