package main

import (
	"math/rand"
	"sort"

	"graphcache/internal/core"
	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// newRand returns a seeded generator (all demo randomness is explicit).
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// DemoDataset generates the demo deployment's dataset shape: 100 AIDS-like
// molecules (the paper bundles 100 graphs of the AIDS dataset).
func DemoDataset(seed int64) []*graph.Graph {
	return gen.Molecules(newRand(seed), 100, gen.DefaultMoleculeConfig())
}

// WorkloadStep is one row of The Workload Run (Figure 2(b)): per executed
// query, its hits and the hit percentage over the cached graphs.
type WorkloadStep struct {
	Index              int
	SubHits, SuperHits int
	ExactHit           bool
	// HitPct is (hits / cached graphs) × 100, the percentage the demo UI
	// shows "upon each executed query".
	HitPct float64
	// TestSpeedup is the per-query C_M/C ratio.
	TestSpeedup float64
}

// RunWorkload reproduces Figure 2(b): the demo deployment (100 molecules,
// GGSX, cache of 50 warmed queries) processing a 10-query workload.
func RunWorkload(seed int64, workloadSize int, policy string) ([]WorkloadStep, *core.Cache, error) {
	dataset := DemoDataset(seed)
	method := ftv.NewGGSXMethod(dataset, 3)
	p, err := core.NewPolicy(policy)
	if err != nil {
		return nil, nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Capacity = 50
	cfg.Window = 10
	cfg.Policy = p
	c, err := core.New(method, cfg)
	if err != nil {
		return nil, nil, err
	}

	// Warm with 50 executed queries (the demo's "graph cache with 50
	// executed queries").
	rng := newRand(seed + 21)
	warm, err := gen.NewWorkload(rng, dataset, gen.WorkloadConfig{
		Size: 50, Type: ftv.Subgraph, PoolSize: 50,
		ZipfS: 0, ChainFrac: 0.4, ChainLen: 3, MinEdges: 3, MaxEdges: 12,
	})
	if err != nil {
		return nil, nil, err
	}
	for _, q := range warm.Queries {
		if _, err := c.Execute(q.G, q.Type); err != nil {
			return nil, nil, err
		}
	}

	// The measured workload: drawn from a pool overlapping the warm pool's
	// sources so hits occur, like the demo's user-selected workloads.
	run, err := gen.NewWorkload(rng, dataset, gen.WorkloadConfig{
		Size: workloadSize, Type: ftv.Subgraph, PoolSize: 2 * workloadSize,
		ZipfS: 1.2, ChainFrac: 0.6, ChainLen: 3, MinEdges: 3, MaxEdges: 12,
	})
	if err != nil {
		return nil, nil, err
	}
	var steps []WorkloadStep
	for i, q := range run.Queries {
		cached := c.Len()
		res, err := c.Execute(q.G, q.Type)
		if err != nil {
			return nil, nil, err
		}
		hits := res.SubHitCount() + res.SuperHitCount()
		if res.ExactHit {
			hits++
		}
		pct := 0.0
		if cached > 0 {
			pct = 100 * float64(hits) / float64(cached)
		}
		steps = append(steps, WorkloadStep{
			Index:       i,
			SubHits:     res.SubHitCount(),
			SuperHits:   res.SuperHitCount(),
			ExactHit:    res.ExactHit,
			HitPct:      pct,
			TestSpeedup: res.TestSpeedup(),
		})
	}
	return steps, c, nil
}

// ReplacementResult is Figure 2(c): for each policy, the entry IDs evicted
// when a full 50-entry cache absorbs a 10-query window.
type ReplacementResult struct {
	Policy  string
	Evicted []int // entry IDs chosen as victims
}

// RunReplacement reproduces Figure 2(c): the cache is filled with exactly
// 50 executed queries, a burst of resubmissions differentiates entry
// utilities (recency, popularity, savings), and then a 10-query window of
// fresh queries forces 10 replacements — under every policy, over the
// identical sequence. "Different graphs are cached out in different
// caches."
func RunReplacement(seed int64, policies []string) ([]ReplacementResult, error) {
	if len(policies) == 0 {
		policies = []string{"lru", "pop", "pin", "pinc", "hd"}
	}
	dataset := DemoDataset(seed)
	// One shared pool of distinct patterns: 50 to fill, 10 to displace.
	w, err := gen.NewWorkload(newRand(seed+33), dataset, gen.WorkloadConfig{
		Size: 1, Type: ftv.Subgraph, PoolSize: 70,
		ZipfS: 0, ChainFrac: 0.5, ChainLen: 3, MinEdges: 3, MaxEdges: 12,
	})
	if err != nil {
		return nil, err
	}

	var out []ReplacementResult
	for _, pname := range policies {
		method := ftv.NewGGSXMethod(dataset, 3)
		p, err := core.NewPolicy(pname)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.Capacity = 50
		cfg.Window = 10
		cfg.Policy = p
		c, err := core.New(method, cfg)
		if err != nil {
			return nil, err
		}

		// Fill to exactly 50 admitted entries (isomorphic pool duplicates
		// exact-hit instead of admitting, so iterate until full).
		next := 0
		for c.Len() < 50 && next < len(w.Pool) {
			q := w.Pool[next]
			next++
			if _, err := c.Execute(q.G, q.Type); err != nil {
				return nil, err
			}
		}
		// Differentiate utilities (exact hits update popularity and
		// savings without admissions; recency is stamped per miss, so
		// hits with no miss between them share a tick). First every
		// cached entry is touched once in shuffled order — distinct
		// per-entry savings for PIN/PINC (each exact hit credits that
		// entry's own |C_M|), while LRU sees every touched entry as
		// equally recent and falls back to ID order — then a skewed
		// burst separates popularity from recency.
		rng := newRand(seed + 44)
		resident := c.Entries()
		rng.Shuffle(len(resident), func(i, j int) { resident[i], resident[j] = resident[j], resident[i] })
		for _, e := range resident {
			if _, err := c.Execute(e.Graph, e.Type); err != nil {
				return nil, err
			}
		}
		for i := 0; i < 30; i++ {
			e := resident[rng.Intn(1+len(resident)/3)]
			if _, err := c.Execute(e.Graph, e.Type); err != nil {
				return nil, err
			}
		}
		before := map[int]bool{}
		for _, e := range c.Entries() {
			before[e.ID] = true
		}
		// One full window of fresh queries forces 10 evictions.
		evictedBy := 0
		for next < len(w.Pool) && evictedBy < 10 {
			q := w.Pool[next]
			next++
			res, err := c.Execute(q.G, q.Type)
			if err != nil {
				return nil, err
			}
			if !res.ExactHit {
				evictedBy++
			}
		}
		after := map[int]bool{}
		for _, e := range c.Entries() {
			after[e.ID] = true
		}
		var evicted []int
		for id := range before {
			if !after[id] {
				evicted = append(evicted, id)
			}
		}
		sort.Ints(evicted)
		out = append(out, ReplacementResult{Policy: pname, Evicted: evicted})
	}
	return out, nil
}
