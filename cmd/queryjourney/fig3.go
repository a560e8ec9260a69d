package main

import (
	"fmt"
	"math/rand"
	"sort"

	"graphcache/internal/core"
	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

// Fig3Result carries the quantities of the paper's Figure 3 — The Query
// Journey: cache hits H/H′, Method M's candidate set C_M, savings S and
// S′, GC's candidate set C, the sub-iso survivors R and the answer set A.
type Fig3Result struct {
	// CachedQueries is the number of warmed cache entries (paper: 50).
	CachedQueries int
	// SubHits and SuperHits are |H| and |H′| (paper: 1 and 3).
	SubHits, SuperHits int
	// CM is |C_M| (paper: 75).
	CM int
	// S and SPrime are |S| and |S′|.
	S, SPrime int
	// C is |C| after pruning (paper: 43).
	C int
	// R is |R|, verification survivors (paper: 14).
	R int
	// A is |A| = |R ∪ S| (paper: 15).
	A int
	// TestSpeedup is C_M/C (paper: 75/43 = 1.74).
	TestSpeedup float64
	// SureIDs lists the S members (the "graph id 46" of Figure 3(c)).
	SureIDs []int
	// AnswerIDs lists the final answers.
	AnswerIDs []int
}

// RunFig3 reproduces The Query Journey: a 100-molecule dataset, Method M
// = GGSX(L=3)+VF2, a cache warmed with 50 executed queries, then one probe
// query constructed (as in the demo) to enjoy both sub-case and super-case
// hits. Deterministic in seed.
func RunFig3(seed int64) (*Fig3Result, error) {
	rng := rand.New(rand.NewSource(seed))
	// The demo deployment's dataset: 100 AIDS-like molecules.
	dataset := gen.Molecules(rand.New(rand.NewSource(seed)), 100, gen.DefaultMoleculeConfig())
	method := ftv.NewGGSXMethod(dataset, 3)

	cfg := core.DefaultConfig()
	cfg.Capacity = 50
	cfg.Window = 10
	cfg.SelfCheck = true
	c, err := core.New(method, cfg)
	if err != nil {
		return nil, err
	}

	// The probe pattern and its relatives: one cached query contains the
	// probe (sub-case hit), several cached queries are contained in it
	// (super-case hits). The paper's walk-through uses a probe with a
	// large candidate set but a small answer set (|C_M| = 75, |A| = 15 of
	// 100): the filter passes most graphs, verification rejects most —
	// exactly the gap cache hits harvest. Search extraction attempts for a
	// probe maximizing that gap.
	var big, probe *graph.Graph
	bestGap := -1
	for attempt := 0; attempt < 60; attempt++ {
		src := dataset[rng.Intn(len(dataset))]
		b := gen.ExtractConnectedSubgraph(rng, src, 12)
		p := gen.ExtractConnectedSubgraph(rng, b, 6)
		if p.N() >= b.N() { // degenerate extraction; need probe ⊊ big
			continue
		}
		r := method.Run(p, ftv.Subgraph)
		ans := r.Answers.Count()
		if ans == 0 {
			continue
		}
		if gap := r.CandidateCount - ans; gap > bestGap {
			bestGap, big, probe = gap, b, p
		}
		if bestGap >= len(dataset)/2 {
			break
		}
	}
	if probe == nil {
		return nil, fmt.Errorf("no suitable probe found for seed %d", seed)
	}
	// Super-case suppliers: nearly-probe-sized sub-patterns, picked for
	// selectivity — the smaller their answer sets, the more candidates
	// they exclude (a 1-edge pattern would match everything and prune
	// nothing). Draw several and keep the three most selective.
	type scored struct {
		g   *graph.Graph
		ans int
	}
	var candidates []scored
	for i := 0; i < 10; i++ {
		s := gen.ExtractConnectedSubgraph(rng, probe, probe.M()-1-i%2)
		if s.M() < probe.M() && !iso.Isomorphic(s, probe) {
			candidates = append(candidates, scored{s, method.Run(s, ftv.Subgraph).Answers.Count()})
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].ans < candidates[j].ans })
	if len(candidates) > 3 {
		candidates = candidates[:3]
	}
	smalls := make([]*graph.Graph, len(candidates))
	for i, c := range candidates {
		smalls[i] = c.g
	}

	// Warm the cache with 50 executed queries: the 4 relatives plus 46
	// fillers drawn from the dataset at large. Fillers isomorphic to the
	// probe are skipped — the journey demonstrates sub/super hits, not the
	// exact-match path.
	warm := []*graph.Graph{big}
	warm = append(warm, smalls...)
	for len(warm) < 50 {
		g := dataset[rng.Intn(len(dataset))]
		f := gen.ExtractConnectedSubgraph(rng, g, 3+rng.Intn(10))
		if iso.Isomorphic(f, probe) {
			continue
		}
		warm = append(warm, f)
	}
	rng.Shuffle(len(warm), func(i, j int) { warm[i], warm[j] = warm[j], warm[i] })
	for _, w := range warm {
		if _, err := c.Execute(w, ftv.Subgraph); err != nil {
			return nil, err
		}
	}

	res, err := c.Execute(probe, ftv.Subgraph)
	if err != nil {
		return nil, err
	}
	if res.ExactHit {
		return nil, fmt.Errorf("probe collided with a warm query (seed %d); use another seed", seed)
	}
	return &Fig3Result{
		CachedQueries: c.Len(),
		SubHits:       res.SubHitCount(),
		SuperHits:     res.SuperHitCount(),
		CM:            res.BaseCandidates,
		S:             res.Sure.Count(),
		SPrime:        res.Excluded.Count(),
		C:             res.Tests,
		R:             res.Survivors.Count(),
		A:             res.Answers.Count(),
		TestSpeedup:   res.TestSpeedup(),
		SureIDs:       res.Sure.Indices(),
		AnswerIDs:     res.Answers.Indices(),
	}, nil
}
