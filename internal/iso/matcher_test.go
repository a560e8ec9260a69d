package iso

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"graphcache/internal/graph"
)

// TestBoundMatcherReuse: a matcher that has been through any sequence of
// targets — matches, misses, searches cut off by MaxRecursions, a larger
// target and then a smaller one, other searches through the pool in
// between — answers each target as VF2 does on its own: the same
// verdict and the same Stats, since nothing of one search may reach the
// next. The search in between counts to two embeddings, and the matcher
// it releases is the one VF2 most likely binds next: Release must hand
// it back with the zero limit, deciding at the first embedding, or VF2's
// verdict or Stats part from the bound matcher's on every target that
// matches.
func TestBoundMatcherReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var matched, missed, aborted, shrank int
	for trial := 0; trial < 200; trial++ {
		var targets []*graph.Graph
		for len(targets) < 24 {
			n := 6 + rng.Intn(30)
			switch trial % 3 {
			case 0:
				targets = append(targets, randomGraph(rng, n, 2, 0.25))
			case 1:
				targets = append(targets, randomDigraph(rng, n, 2, 0, 0.15))
			default:
				targets = append(targets, randomEdgeLabelled(rng, n, 2, 2, 0.25))
			}
		}
		// A pattern cut out of one target, so that some targets match.
		host := targets[rng.Intn(len(targets))]
		p, err := host.InducedSubgraph(rng.Perm(host.N())[:3+rng.Intn(3)])
		if err != nil {
			t.Fatal(err)
		}
		// Half the trials search under a budget some targets exhaust.
		var opts Options
		if trial%2 == 1 {
			var recs []int64
			for _, tg := range targets {
				_, st := VF2(p, tg, Options{})
				recs = append(recs, st.Recursions)
			}
			slices.Sort(recs)
			opts.MaxRecursions = max(1, recs[len(recs)/2])
		}
		m := Bind(p, opts)
		for round := 0; round < 3; round++ {
			rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
			prevN := 0
			for _, tg := range targets {
				CountEmbeddings(p, tg, 2) // through the pool, never through m
				ok, st := m.Match(tg)
				wantOK, wantSt := VF2(p, tg, opts)
				if ok != wantOK || st != wantSt {
					t.Fatalf("trial %d: reused matcher says %v %+v, one-shot VF2 %v %+v", trial, ok, st, wantOK, wantSt)
				}
				switch {
				case st.Aborted:
					aborted++
				case ok:
					matched++
				default:
					missed++
				}
				if tg.N() < prevN {
					shrank++
				}
				prevN = tg.N()
			}
		}
		m.Release()
	}
	t.Logf("%d matches, %d misses, %d aborted, %d targets smaller than the one before", matched, missed, aborted, shrank)
	if matched < 500 || missed < 500 || aborted < 500 || shrank < 500 {
		t.Error("the sequences no longer cover every outcome")
	}
}

// TestConcurrentFirstPlan: goroutines that bind a pattern nobody has
// planned yet, all at once, race on its first plan. Each must search
// with the one packed plan the graph ends up memoizing — losers of the
// race take the winner's bytes — and reach the verdicts and Stats a
// sequential search reaches, on narrow and wide plans alike.
func TestConcurrentFirstPlan(t *testing.T) {
	const goroutines = 16
	rng := rand.New(rand.NewSource(51))
	for round := 0; round < 12; round++ {
		n := 12 + rng.Intn(30)
		if round%4 == 3 {
			n = 128 + rng.Intn(40) // a wide plan
		}
		var targets []*graph.Graph
		for len(targets) < 6 {
			if round%2 == 0 {
				targets = append(targets, randomGraph(rng, n+rng.Intn(20), 3, 3/float64(n)))
			} else {
				targets = append(targets, randomDigraph(rng, n+rng.Intn(20), 3, 0, 2/float64(n)))
			}
		}
		p, err := targets[0].InducedSubgraph(rng.Perm(targets[0].N())[:n])
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{MaxRecursions: 20000}
		type outcome struct {
			ok bool
			st Stats
		}
		plans := make([]graph.Plan, goroutines)
		got := make([][]outcome, goroutines)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				m := Bind(p, opts)
				plans[g] = m.plan
				for _, tg := range targets {
					ok, st := m.Match(tg)
					got[g] = append(got[g], outcome{ok, st})
				}
				m.Release()
			}()
		}
		close(start)
		wg.Wait()
		memo := p.MatchPlan()
		for g := 0; g < goroutines; g++ {
			if plans[g] != memo {
				t.Fatalf("round %d: goroutine %d searched with a plan other than the memoized one", round, g)
			}
			for i, tg := range targets {
				ok, st := VF2(p, tg, opts)
				if got[g][i] != (outcome{ok, st}) {
					t.Fatalf("round %d: goroutine %d, target %d: %v %+v, sequential %v %+v", round, g, i, got[g][i].ok, got[g][i].st, ok, st)
				}
			}
		}
	}
}
