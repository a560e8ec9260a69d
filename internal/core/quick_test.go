package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
)

// Property: for arbitrary query sequences drawn from seeds, the cache's
// answers always equal the base method's, and the per-query ledger stays
// consistent. testing/quick drives the seed and knob space.
func TestQuickCacheEqualsBase(t *testing.T) {
	dataset := testDataset(61, 25)
	method := ftv.NewGGSXMethod(dataset, 3)

	f := func(seed int64, capacity, window uint8, zipfOn bool) bool {
		cfg := DefaultConfig()
		cfg.Capacity = 1 + int(capacity%12)
		cfg.Window = 1 + int(window%5)
		c, err := New(method, cfg)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		wcfg := gen.WorkloadConfig{
			Size: 25, Type: ftv.Subgraph, PoolSize: 10,
			ChainFrac: 0.5, ChainLen: 3, MinEdges: 2, MaxEdges: 8,
		}
		if zipfOn {
			wcfg.ZipfS = 1.3
		}
		w, err := gen.NewWorkload(rng, dataset, wcfg)
		if err != nil {
			return false
		}
		for _, q := range w.Queries {
			res, err := c.Execute(q.G, q.Type)
			if err != nil {
				return false
			}
			if !res.Answers.Equal(method.Run(q.G, q.Type).Answers) {
				return false
			}
			if res.Tests > res.BaseCandidates || res.Tests != res.Candidates {
				return false
			}
			if res.Sure.IntersectionCount(res.Excluded) != 0 {
				return false
			}
		}
		return c.Len() <= cfg.Capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: ReplacedContent returns exactly min(x, len) distinct in-range
// positions for every bundled policy and any utility configuration.
func TestQuickReplacedContentWellFormed(t *testing.T) {
	f := func(seeds []uint32, x uint8) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 40 {
			seeds = seeds[:40]
		}
		entries := make([]*Entry, len(seeds))
		for i, s := range seeds {
			entries[i] = mkEntry(i, int64(s%97), int64(s%53), int64(s%7),
				float64(s%101), float64(s%1009))
		}
		want := int(x % 45)
		if want > len(entries) {
			want = len(entries)
		}
		for _, name := range PolicyNames() {
			p, err := NewPolicy(name)
			if err != nil {
				return false
			}
			got := p.ReplacedContent(entries, int(x%45))
			if len(got) != want && len(got) != len(entries) {
				// x ≥ len(entries) may return all positions.
				if !(int(x%45) >= len(entries) && len(got) == len(entries)) {
					return false
				}
			}
			seen := map[int]bool{}
			for _, pos := range got {
				if pos < 0 || pos >= len(entries) || seen[pos] {
					return false
				}
				seen[pos] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: feature-vector dominance is reflexive and transitive on
// random graphs, and a subgraph's vector is dominated by its supergraph's.
func TestQuickFeatureDominanceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gen.Molecule(r, gen.MoleculeConfig{MinV: 6, MaxV: 12, RingFrac: 0.1, MaxDegree: 4, Labels: 4})
		sub := gen.ExtractConnectedSubgraph(r, g, 2+r.Intn(4))
		subsub := gen.ExtractConnectedSubgraph(r, sub, 1+r.Intn(2))

		fg := pathFeatures(g, 2)
		fsub := pathFeatures(sub, 2)
		fss := pathFeatures(subsub, 2)
		// Reflexive.
		if !fg.dominatedBy(fg) {
			return false
		}
		// Chain: subsub ⊑ sub ⊑ g.
		if !fsub.dominatedBy(fg) || !fss.dominatedBy(fsub) {
			return false
		}
		// Transitivity consequence.
		return fss.dominatedBy(fg)
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Concurrent clients: many goroutines issuing queries against one cache
// must all observe exact answers; internal serialization keeps the ledger
// coherent.
func TestConcurrentClients(t *testing.T) {
	dataset := testDataset(63, 30)
	method := ftv.NewGGSXMethod(dataset, 3)
	cfg := DefaultConfig()
	cfg.Window = 3
	c, err := New(method, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	const perClient = 15
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + k)))
			for i := 0; i < perClient; i++ {
				q := gen.ExtractConnectedSubgraph(rng, dataset[rng.Intn(len(dataset))], 3+rng.Intn(5))
				res, err := c.Execute(q, ftv.Subgraph)
				if err != nil {
					errs <- err
					return
				}
				if !res.Answers.Equal(method.Run(q, ftv.Subgraph).Answers) {
					errs <- errMismatch{}
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := c.Stats().Queries; got != clients*perClient {
		t.Errorf("ledger lost queries under concurrency: %d", got)
	}
}

type errMismatch struct{}

func (errMismatch) Error() string { return "concurrent answers diverged from base" }
