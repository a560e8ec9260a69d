// Quickstart: the paper's biochemical scenario in four queries. Wrap a
// filter-then-verify method over a molecule library with GraphCache, then
// watch each kind of cache hit save sub-iso tests: an exact hit on a
// resubmitted query, a sub-case hit on a smaller fragment and a
// super-case hit on a larger scaffold.
package main

import (
	"fmt"
	"log"

	gc "graphcache"
)

func main() {
	// A library of 500 AIDS-like molecule graphs (ids = positions).
	library := gc.GenerateMolecules(42, 500)

	// Method M: GraphGrepSX-style path index (paths ≤ 4 edges) + VF2.
	method := gc.NewGGSXMethod(library, 4)

	// GraphCache on top: 50 cached queries, HD replacement (the paper's
	// recommended default). Window=1 admits every executed query into the
	// cache immediately; the default of 10 batches admissions, which suits
	// long workloads but would hide hits in this short walk-through.
	cfg := gc.DefaultConfig()
	cfg.Window = 1
	cache, err := gc.NewCache(method, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// A containment chain fragment ⊑ core ⊑ scaffold, cut out of one
	// molecule so every pattern has at least one answer.
	scaffold := gc.ExtractPattern(9, library[4], 10)
	core := gc.ExtractPattern(10, scaffold, 6)
	fragment := gc.ExtractPattern(11, core, 3)

	fmt.Println("substructure screening over a 500-molecule library")
	fmt.Println("---------------------------------------------------")
	for _, step := range []struct {
		name    string
		pattern *gc.Graph
	}{
		{"core (cold)", core},
		{"core (resubmitted)", core},  // exact hit: zero sub-iso tests
		{"fragment ⊑ core", fragment}, // sub-case hit: core's answers are answers for sure
		{"scaffold ⊒ core", scaffold}, // super-case hit: only core's answers can be answers
	} {
		res, err := cache.Execute(step.pattern, gc.Subgraph)
		if err != nil {
			log.Fatal(err)
		}
		hit := "miss"
		switch {
		case res.ExactHit:
			hit = "exact hit"
		case res.SubHitCount() > 0:
			hit = "sub-case hit"
		case res.SuperHitCount() > 0:
			hit = "super-case hit"
		}
		fmt.Printf("%-19s %2dV/%2dE  %4d answers  %4d/%4d tests  %-14s speedup %5.2f×\n",
			step.name, step.pattern.N(), step.pattern.M(), res.Answers.Count(),
			res.Tests, res.BaseCandidates, hit, res.TestSpeedup())
	}

	snap := cache.Stats()
	fmt.Printf("\ncache totals: %d queries, %d tests executed, %d saved → speedup %.2f×\n",
		snap.Queries, snap.TestsExecuted, snap.TestsSaved, snap.TestSpeedup())
	fmt.Printf("hits: %d exact, %d sub-case, %d super-case\n",
		snap.ExactHits, snap.SubHits, snap.SuperHits)
}
