package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

// The four workloads. Each exists to make one group of layers busy and
// leave the others idle, so that a change to one layer has a workload that
// exercises it and one that bypasses it (README.md has the measured shares).
const (
	hotExact       = "hot-exact"
	containmentMix = "containment-mix"
	coldUnique     = "cold-unique"
	daemonChurn    = "daemon-churn"
)

var workloadNames = []string{hotExact, containmentMix, coldUnique, daemonChurn}

// dataSeed seeds the dataset, the pattern pools and which patterns are
// popular: the repository's default dataset seed. It is a constant because
// query cost is heavy-tailed (a subgraph pattern costs 0.5 ms at the median
// and 15 ms at p99): pools drawn per --seed made throughput differ by up to
// 2× between seeds, which no regression bound survives.
const dataSeed = 2018

// instances is how many times an untraced run builds the system and times
// it. The sandbox this was written on changes speed every few seconds (a
// loop that touches no memory runs at one of two speeds 28 % apart), so one
// long timed phase measures the weather; every timing is the median over
// the instances, which spreads the measurement over 20–30 s.
const instances = 5

// sizes fixes how much work a run generates. Everything is a count, so the
// work is the same on every machine and commit.
type sizes struct {
	dataset  int // molecules in the dataset
	capacity int // cache entries

	hotPool    int // patterns, fits the cache
	mixPool    int // patterns, 4× the cache
	mixWarm    int // warm-up queries
	daemonPool int
	daemonWarm int
	coldWarm   int // unique patterns spent filling the cache

	// Queries per second of --seconds that a timed phase issues, by workload:
	// the rates of the commit and the 2-CPU sandbox this was written on,
	// rounded down, so that the timed phases of a run take about --seconds
	// there. They size the op sequences and are never measured again.
	hotRate, mixRate, coldRate, daemonRate int

	mutEvery int // daemon-churn: one op in mutEvery×nproc is a mutation
	adds     int // graphs generated for mutations
	burst    int // adds (and removes) in one mutation burst after a timed phase

	probes       int   // queries given to the direct layer probes
	tracedOpsCap int   // most ops replayed with spans on
	sweepLevels  []int // capacity sweep: resident entries
	sweepQueries int   // never-seen queries timed per level
	altOps       int   // ops replayed per alternative engine
}

func sizesFor(scale float64) sizes {
	n := func(full, floor int) int {
		if v := int(float64(full) * scale); v > floor {
			return v
		}
		return floor
	}
	return sizes{
		dataset:      n(5000, 60),
		capacity:     n(1000, 20),
		hotPool:      n(800, 16),
		mixPool:      n(4000, 80),
		mixWarm:      n(3000, 60),
		daemonPool:   n(3000, 60),
		daemonWarm:   n(3000, 60),
		coldWarm:     n(1500, 30),
		hotRate:      350_000,
		mixRate:      2600,
		coldRate:     1550,
		daemonRate:   4600,
		mutEvery:     100,
		adds:         n(256, 16),
		burst:        n(40, 8),
		probes:       n(256, 32),
		tracedOpsCap: n(500_000, 2000),
		sweepLevels:  []int{n(100, 4), n(1000, 20), n(10000, 100)},
		sweepQueries: n(500, 20),
		altOps:       n(1500, 100),
	}
}

// pattern is one query of a pool.
type pattern struct {
	g    *graph.Graph
	qt   ftv.QueryType
	body []byte // POST /api/query payload, daemon-churn only
}

// addition is one graph a mutation adds to the dataset.
type addition struct {
	g    *graph.Graph
	body []byte // POST /api/dataset/graphs payload
}

// workload is the generated input of one run: a pattern pool, the warm-up
// and timed op sequences as indexes into it, and the graphs mutations add.
// A timed phase issues ops once, from first to last.
type workload struct {
	http     bool
	pool     []pattern
	warm     []uint32
	ops      []uint32
	probe    []uint32 // what the direct layer probes run on
	mutEvery int      // 0: the timed phase never mutates
	adds     []addition
}

// newWorkload generates the named workload with a timed op sequence of
// seconds' worth of queries. Which queries a sequence holds, and how often
// each, is fixed by dataSeed; --seed fixes their order, the graphs mutations
// add and (in run.go) the oracle's sample. Every seed therefore does the same
// work: drawing the ops independently per seed made the mean cost of 13 000
// draws from a heavy-tailed pool differ by 2–3 % between seeds.
func newWorkload(name string, dataset []*graph.Graph, seed int64, sz sizes, seconds float64) (*workload, error) {
	patRng := rand.New(rand.NewSource(dataSeed + 1))
	rankRng := rand.New(rand.NewSource(dataSeed + 2))
	opRng := rand.New(rand.NewSource(seed + 2))
	count := func(rate int) int { return max(int(seconds*float64(rate)), 64) }
	w := &workload{}
	var err error
	switch name {
	case hotExact:
		// Every pattern is executed twice in warm-up: once to compute it,
		// once more so that window-pending entries are admitted.
		if w.pool, err = newPool(patRng, dataset, sz.hotPool, 0.5); err != nil {
			return nil, err
		}
		for pass := 0; pass < 2; pass++ {
			for i := range w.pool {
				w.warm = append(w.warm, uint32(i))
			}
		}
		w.ops = shuffled(opRng, zipfShares(rankRng.Perm(len(w.pool)), 1.2, count(sz.hotRate)))
	case containmentMix:
		if w.pool, err = newPool(patRng, dataset, sz.mixPool, 0.8); err != nil {
			return nil, err
		}
		w.warm = shuffled(opRng, equalShares(len(w.pool), sz.mixWarm))
		w.ops = shuffled(opRng, equalShares(len(w.pool), count(sz.mixRate)))
	case coldUnique:
		want := sz.coldWarm + count(sz.coldRate) + sz.probes
		// Duplicates are a few per cent of a pool; generate a tenth more.
		pool, err := newPool(patRng, dataset, want+want/10, 0)
		if err != nil {
			return nil, err
		}
		w.pool = nonIsomorphic(pool, want)
		// The last patterns are never issued by a phase: the layer probes
		// need queries the cache has not seen either.
		probes := min(sz.probes, len(w.pool)/4)
		warm := min(sz.coldWarm, len(w.pool)/4)
		for i := range w.pool {
			switch {
			case i < warm:
				w.warm = append(w.warm, uint32(i))
			case i < len(w.pool)-probes:
				w.ops = append(w.ops, uint32(i))
			default:
				w.probe = append(w.probe, uint32(i))
			}
		}
		// The seed reorders the patterns only inside blocks of 256: every
		// seed issues the same patterns by any given point of the run, so
		// what the cache has seen, and with it tests_saved_frac, does not
		// depend on which half of the pool a shuffle happened to put first.
		for lo := 0; lo < len(w.ops); lo += 256 {
			shuffled(opRng, w.ops[lo:min(lo+256, len(w.ops))])
		}
	case daemonChurn:
		w.http = true
		w.mutEvery = sz.mutEvery
		if w.pool, err = newPool(patRng, dataset, sz.daemonPool, 0.5); err != nil {
			return nil, err
		}
		for i := range w.pool {
			p := &w.pool[i]
			qt := "subgraph"
			if p.qt == ftv.Supergraph {
				qt = "supergraph"
			}
			p.body = jsonBody(map[string]string{"graph": graphText(p.g), "type": qt})
		}
		ranks := rankRng.Perm(len(w.pool))
		w.warm = shuffled(opRng, zipfShares(ranks, 1.05, sz.daemonWarm))
		w.ops = shuffled(opRng, zipfShares(ranks, 1.05, count(sz.daemonRate)))
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if w.probe == nil {
		w.probe = everyNth(w.ops, 0, sz.probes)
	}
	addRng := rand.New(rand.NewSource(seed + 3))
	for _, g := range gen.Molecules(addRng, sz.adds, gen.DefaultMoleculeConfig()) {
		w.adds = append(w.adds, addition{g: g, body: jsonBody(map[string]string{"graph": graphText(g)})})
	}
	return w, nil
}

// probeStride is the sampling step of the direct layer probes: every 64th
// op of the workload's own sequence.
const probeStride = 64

// everyNth returns at most n ops of seq, every probeStride-th from offset.
func everyNth(seq []uint32, offset, n int) []uint32 {
	var out []uint32
	for pos := offset; pos < len(seq) && len(out) < n; pos += probeStride {
		out = append(out, seq[pos])
	}
	return out
}

func (w *workload) patterns(seq []uint32) []*pattern {
	out := make([]*pattern, len(seq))
	for i, op := range seq {
		out[i] = &w.pool[op]
	}
	return out
}

// equalShares returns n indexes into a pool of the given size, each index as
// often as any other (to within one).
func equalShares(pool, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i % pool)
	}
	return out
}

// zipfShares returns n indexes into a pool with the frequencies of a zipf
// distribution of exponent s, P(rank k) ∝ (1+k)^−s, as exact shares of n and
// not as n draws: index j goes to the rank under which the (j+½)/n point of
// the cumulative distribution falls. ranks[k] is the pattern of popularity
// rank k, which decouples popularity from pool order.
func zipfShares(ranks []int, s float64, n int) []uint32 {
	pool := len(ranks)
	cum := make([]float64, pool)
	total := 0.0
	for k := range cum {
		total += math.Pow(float64(1+k), -s)
		cum[k] = total
	}
	out := make([]uint32, n)
	k := 0
	for j := range out {
		at := (float64(j) + 0.5) / float64(n) * total
		for k < pool-1 && cum[k] < at {
			k++
		}
		out[j] = uint32(ranks[k])
	}
	return out
}

// shuffled shuffles seq in place and returns it.
func shuffled(rng *rand.Rand, seq []uint32) []uint32 {
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// newPool extracts n mixed sub/super patterns of 4–16 edges from the
// dataset, chainFrac of them in containment chains of three.
func newPool(rng *rand.Rand, dataset []*graph.Graph, n int, chainFrac float64) ([]pattern, error) {
	wl, err := gen.NewWorkload(rng, dataset, gen.WorkloadConfig{
		Size: 1, Mixed: true, PoolSize: n,
		ChainFrac: chainFrac, ChainLen: 3, MinEdges: 4, MaxEdges: 16,
	})
	if err != nil {
		return nil, err
	}
	pool := make([]pattern, len(wl.Pool))
	for i, q := range wl.Pool {
		pool[i] = pattern{g: q.G, qt: q.Type}
	}
	return pool, nil
}

// nonIsomorphic keeps at most want pairwise non-isomorphic patterns, so no
// query of the result can be an exact hit on another. The kept graphs are
// fresh copies: the fingerprint computed here must not be found memoised by
// the cache, which would spare it work a real first-time query costs.
func nonIsomorphic(pool []pattern, want int) []pattern {
	seen := make(map[graph.Fingerprint][]*graph.Graph, len(pool))
	out := make([]pattern, 0, want)
	for _, p := range pool {
		if len(out) == want {
			break
		}
		fp := p.g.WLFingerprint(3)
		dup := false
		for _, h := range seen[fp] {
			if iso.Isomorphic(h, p.g) {
				dup = true
				break
			}
		}
		if !dup {
			seen[fp] = append(seen[fp], p.g)
			out = append(out, pattern{g: copyGraph(p.g), qt: p.qt})
		}
	}
	return out
}

// copyGraph returns a structurally equal graph with no memoised summaries.
func copyGraph(g *graph.Graph) *graph.Graph {
	return graph.MustNew(append([]graph.Label(nil), g.Labels()...), g.Edges())
}

func graphText(g *graph.Graph) string {
	var b bytes.Buffer
	_ = graph.WriteGraph(&b, g) // a bytes.Buffer cannot fail
	return b.String()
}

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings always marshal
	}
	return b
}
