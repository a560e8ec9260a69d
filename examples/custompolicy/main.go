// Custompolicy: the demo's developer scenario (Figure 2(d)) — extending
// GraphCache with a new replacement policy by implementing the Policy
// interface: UpdateCacheStaInfo, ReplacedContent and OnWindowTurn
// (the Cache Manager performs the replacement itself, the paper's
// updateCacheItems).
//
// The example implements "SLRU-ish": entries that ever produced a hit are
// protected; victims come from the never-hit probation segment first.
package main

import (
	"fmt"
	"log"
	"sort"

	gc "graphcache"
)

// segmentedPolicy is the custom policy: probation (no hits yet) is evicted
// before protected (≥1 hit), each segment ordered LRU.
type segmentedPolicy struct {
	hits map[int]bool // entry ID → ever hit
}

func newSegmented() *segmentedPolicy {
	return &segmentedPolicy{hits: make(map[int]bool)}
}

// Name identifies the policy in reports.
func (p *segmentedPolicy) Name() string { return "slru" }

// UpdateCacheStaInfo promotes entries to the protected segment on any hit.
// (Corresponds to Figure 2(d)'s updateCacheStaInfo.)
func (p *segmentedPolicy) UpdateCacheStaInfo(ev *gc.HitEvent) {
	ev.Credit() // the standard utility bookkeeping, ev.N() contributions at once
	p.hits[ev.Entry.ID] = true
}

// OnWindowTurn could age the protection map; this policy keeps it sticky.
func (p *segmentedPolicy) OnWindowTurn() {}

// ReplacedContent returns the x positions with least utility: probation
// first (oldest LastUsed first), then protected. (Figure 2(d)'s
// getReplacedContent.)
func (p *segmentedPolicy) ReplacedContent(entries []*gc.Entry, x int) []int {
	idx := make([]int, len(entries))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ea, eb := entries[idx[a]], entries[idx[b]]
		pa, pb := p.hits[ea.ID], p.hits[eb.ID]
		if pa != pb {
			return !pa // probation evicts first
		}
		if ea.LastUsed != eb.LastUsed {
			return ea.LastUsed < eb.LastUsed
		}
		return ea.ID < eb.ID
	})
	if x > len(idx) {
		x = len(idx)
	}
	return idx[:x]
}

func main() {
	dataset := gc.GenerateMolecules(3, 800)
	method := gc.NewGGSXMethod(dataset, 3)

	run := func(policy gc.Policy) gc.Snapshot {
		cfg := gc.DefaultConfig()
		cfg.Capacity = 15
		cfg.Policy = policy
		cache, err := gc.NewCache(method, cfg)
		if err != nil {
			log.Fatal(err)
		}
		wcfg := gc.DefaultWorkloadConfig()
		wcfg.Size = 400
		wcfg.PoolSize = 120
		wcfg.ZipfS = 1.3
		wcfg.ChainFrac = 0.5
		w, err := gc.GenerateWorkload(11, dataset, wcfg) // same seed ⇒ same workload
		if err != nil {
			log.Fatal(err)
		}
		for _, q := range w.Queries {
			if _, err := cache.Execute(q.G, q.Type); err != nil {
				log.Fatal(err)
			}
		}
		return cache.Stats()
	}

	fmt.Println("custom replacement policy vs bundled ones (same workload)")
	fmt.Println("----------------------------------------------------------")
	policies := []gc.Policy{newSegmented(), gc.NewLRU(), gc.NewHD()}
	for _, p := range policies {
		snap := run(p)
		fmt.Printf("%-5s speedup %5.2f×  (%6d tests executed, %6d saved, hits: %d exact / %d sub / %d super)\n",
			p.Name(), snap.TestSpeedup(), snap.TestsExecuted, snap.TestsSaved,
			snap.ExactHits, snap.SubHits, snap.SuperHits)
	}
	fmt.Println("\nthe custom policy plugged in with three methods — no kernel changes needed.")
}
