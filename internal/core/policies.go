package core

import (
	"fmt"
	"math/rand"

	"graphcache/internal/stats"
)

// scorePolicy implements Policy as "evict the x lowest scores", with
// deterministic tie-breaking by (LastUsed, ID). All bundled policies
// except RAND are scorePolicies; they differ only in the score function.
type scorePolicy struct {
	name   string
	score  func(e *Entry, ctx *scoreContext) float64
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

// ReplacedContent returns the x lowest-scoring entry positions in
// ascending (score, LastUsed, ID) order — exactly the first x of a full
// sort under that total order. It scores each entry once and keeps the x
// smallest seen so far in a bounded max-heap, so choosing ten victims
// among a thousand entries costs a thousand score evaluations and a few
// dozen sift steps instead of a comparison sort of the whole cache.
func (p *scorePolicy) ReplacedContent(entries []*Entry, x int) []int {
	if x >= len(entries) {
		out := make([]int, len(entries))
		for i := range out {
			out[i] = i
		}
		return out
	}
	if x <= 0 {
		return nil
	}
	ctx := p.contextFor(entries)

	// heap[0] is the worst-ranked (largest) of the x best seen so far.
	heap := make([]rankKey, 0, x)
	for i, e := range entries {
		k := rankKey{score: p.score(e, ctx), lastUsed: e.LastUsed, id: e.ID, pos: i}
		switch {
		case len(heap) < x:
			heap = append(heap, k)
			siftUp(heap, len(heap)-1)
		case k.before(heap[0]):
			heap[0] = k
			siftDown(heap, 0)
		}
	}
	// Pop the largest to the back until the heap is an ascending run.
	out := make([]int, x)
	for n := x - 1; n >= 0; n-- {
		out[n] = heap[0].pos
		heap[0] = heap[n]
		heap = heap[:n]
		siftDown(heap, 0)
	}
	return out
}

// contextFor computes the normalization state the score functions share
// for one ranking of entries.
func (p *scorePolicy) contextFor(entries []*Entry) *scoreContext {
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
	return ctx
}

// rankKey is one entry's eviction rank: score first, ties broken by
// LastUsed then ID (unique, so the order is total). pos is the entry's
// position in the slice being ranked.
type rankKey struct {
	score    float64
	lastUsed int64
	id, pos  int
}

// before reports whether a is evicted ahead of b.
func (a rankKey) before(b rankKey) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	if a.lastUsed != b.lastUsed {
		return a.lastUsed < b.lastUsed
	}
	return a.id < b.id
}

// siftUp and siftDown restore the max-heap property — no parent ranks
// before its child — after position i changed.
func siftUp(h []rankKey, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h[parent].before(h[i]) {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func siftDown(h []rankKey, i int) {
	for {
		big := i
		if l := 2*i + 1; l < len(h) && h[big].before(h[l]) {
			big = l
		}
		if r := 2*i + 2; r < len(h) && h[big].before(h[r]) {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
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

// NewLRU returns the least-recently-used policy: utility = LastUsed, the
// tick of the last miss before the entry's latest hit.
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
