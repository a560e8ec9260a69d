package core

import (
	"fmt"
	"math/rand"
	"sort"

	"graphcache/internal/stats"
)

// scorePolicy implements Policy as "evict the x lowest scores", with
// deterministic tie-breaking by (LastUsed, ID). All bundled policies
// except RAND are scorePolicies; they differ only in the score function.
type scorePolicy struct {
	name  string
	score func(e *Entry, ctx *scoreContext) float64
	// onHit defaults to recording the standard utility fields on the
	// entry; policies needing extra state can override.
	costCV *stats.Agg // observed per-hit saved-cost dispersion (HD)
}

// scoreContext carries eviction-time normalization state shared by score
// functions (computed once per ReplacedContent call).
type scoreContext struct {
	minTests, maxTests float64
	minCost, maxCost   float64
	costWeight         float64
}

func (p *scorePolicy) Name() string { return p.name }

// UpdateCacheStaInfo records the contribution on the entry itself — the
// standard utility bookkeeping shared by the bundled policies.
func (p *scorePolicy) UpdateCacheStaInfo(ev *HitEvent) {
	ev.Credit()
	if p.costCV != nil {
		p.costCV.AddN(ev.SavedCostNs, int64(ev.N()))
	}
}

// Credit records the event's N contributions in the entry's standard
// utility fields (Hits, LastUsed as a maximum, SavedTests, SavedCostNs) —
// the bookkeeping every bundled policy does and a custom one should call.
func (ev *HitEvent) Credit() {
	e, k := ev.Entry, ev.N()
	e.Hits += int64(k)
	if ev.Tick > e.LastUsed {
		e.LastUsed = ev.Tick
	}
	e.SavedTests += float64(k * ev.SavedTests)
	e.SavedCostNs += float64(k) * ev.SavedCostNs
}

func (p *scorePolicy) OnWindowTurn() {}

// ReplacedContent returns the x lowest-scoring entry positions.
//
//gclint:deterministic
func (p *scorePolicy) ReplacedContent(entries []*Entry, x int) []int {
	if x >= len(entries) {
		out := make([]int, len(entries))
		for i := range out {
			out[i] = i
		}
		return out
	}
	ctx := &scoreContext{
		minTests: inf(), maxTests: -inf(),
		minCost: inf(), maxCost: -inf(),
	}
	for _, e := range entries {
		ctx.minTests = minf(ctx.minTests, e.SavedTests)
		ctx.maxTests = maxf(ctx.maxTests, e.SavedTests)
		ctx.minCost = minf(ctx.minCost, e.SavedCostNs)
		ctx.maxCost = maxf(ctx.maxCost, e.SavedCostNs)
	}
	if p.costCV != nil {
		cv := p.costCV.CV()
		ctx.costWeight = cv / (1 + cv) // ∈ [0,1): more dispersion ⇒ more cost awareness
	}

	idx := make([]int, len(entries))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ea, eb := entries[idx[a]], entries[idx[b]]
		sa, sb := p.score(ea, ctx), p.score(eb, ctx)
		if sa != sb {
			return sa < sb
		}
		if ea.LastUsed != eb.LastUsed {
			return ea.LastUsed < eb.LastUsed
		}
		return ea.ID < eb.ID
	})
	return idx[:x]
}

func inf() float64 { return 1e308 }
func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// norm rescales v into [0,1] over [lo,hi]; degenerate ranges map to 0.
func norm(v, lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	return (v - lo) / (hi - lo)
}

// NewLRU returns the least-recently-used policy: utility = last hit tick.
func NewLRU() Policy {
	return &scorePolicy{
		name:  "lru",
		score: func(e *Entry, _ *scoreContext) float64 { return float64(e.LastUsed) },
	}
}

// NewFIFO returns first-in-first-out: utility = insertion tick.
// A baseline beyond the paper's bundled five.
func NewFIFO() Policy {
	return &scorePolicy{
		name:  "fifo",
		score: func(e *Entry, _ *scoreContext) float64 { return float64(e.InsertedAt) },
	}
}

// NewPOP returns the popularity policy: utility = hit count.
func NewPOP() Policy {
	return &scorePolicy{
		name:  "pop",
		score: func(e *Entry, _ *scoreContext) float64 { return float64(e.Hits) },
	}
}

// NewPIN returns the PIN policy: utility goes "down to the level of
// sub-iso test numbers" — the count of dataset tests the entry saved.
func NewPIN() Policy {
	return &scorePolicy{
		name:  "pin",
		score: func(e *Entry, _ *scoreContext) float64 { return e.SavedTests },
	}
}

// NewPINC returns the PINC policy: utility = estimated cost (ns) of the
// saved tests, acknowledging that saved tests differ wildly in price.
func NewPINC() Policy {
	return &scorePolicy{
		name:  "pinc",
		score: func(e *Entry, _ *scoreContext) float64 { return e.SavedCostNs },
	}
}

// NewHD returns the HD policy coalescing PIN and PINC: utility is a
// normalized blend of saved-test count and saved-test cost, with the cost
// weight adapting to the observed dispersion of per-hit savings cost
// (uniform costs ⇒ HD ≈ PIN; highly skewed costs ⇒ HD ≈ PINC). This is
// the paper's "when in doubt" recommendation.
func NewHD() Policy {
	return &scorePolicy{
		name:   "hd",
		costCV: &stats.Agg{},
		score: func(e *Entry, ctx *scoreContext) float64 {
			w := ctx.costWeight
			return (1-w)*norm(e.SavedTests, ctx.minTests, ctx.maxTests) +
				w*norm(e.SavedCostNs, ctx.minCost, ctx.maxCost)
		},
	}
}

// randPolicy evicts uniformly at random (seeded, hence reproducible).
type randPolicy struct {
	rng *rand.Rand
}

// NewRand returns the random-replacement baseline with the given seed.
func NewRand(seed int64) Policy {
	return &randPolicy{rng: rand.New(rand.NewSource(seed))}
}

func (p *randPolicy) Name() string { return "rand" }

func (p *randPolicy) UpdateCacheStaInfo(ev *HitEvent) { ev.Credit() }

func (p *randPolicy) OnWindowTurn() {}

func (p *randPolicy) ReplacedContent(entries []*Entry, x int) []int {
	if x >= len(entries) {
		out := make([]int, len(entries))
		for i := range out {
			out[i] = i
		}
		return out
	}
	return p.rng.Perm(len(entries))[:x]
}

// NewPolicy constructs a bundled policy by name: "lru", "fifo", "pop",
// "pin", "pinc", "hd", "rand".
func NewPolicy(name string) (Policy, error) {
	switch name {
	case "lru":
		return NewLRU(), nil
	case "fifo":
		return NewFIFO(), nil
	case "pop":
		return NewPOP(), nil
	case "pin":
		return NewPIN(), nil
	case "pinc":
		return NewPINC(), nil
	case "hd":
		return NewHD(), nil
	case "rand":
		return NewRand(1), nil
	}
	return nil, fmt.Errorf("core: unknown policy %q", name)
}

// PolicyNames lists the bundled policies in the paper's order plus extras.
func PolicyNames() []string { return []string{"lru", "pop", "pin", "pinc", "hd", "fifo", "rand"} }
