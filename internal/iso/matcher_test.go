package iso

import (
	"math/rand"
	"slices"
	"testing"

	"graphcache/internal/graph"
)

// TestBoundMatcherReuse: a matcher that has been through any sequence of
// targets — matches, misses, searches cut off by MaxRecursions, a larger
// target and then a smaller one, FindEmbedding leaving its mapping behind
// in the pool — answers each target as VF2 does on its own: the same
// verdict and the same Stats, since nothing of one search may reach the
// next. VF2 screens with quickReject first and Match does not; where that
// screen fires the pair has no embedding, and only the verdict is compared.
func TestBoundMatcherReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var matched, missed, aborted, shrank, screened int
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
				FindEmbedding(p, tg) // through the pool, never through m
				ok, st := m.Match(tg)
				wantOK, wantSt := VF2(p, tg, opts)
				if quickReject(p, tg) {
					screened++
					wantSt = st
				}
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
	t.Logf("%d matches, %d misses (%d of them screened by quickReject), %d aborted, %d targets smaller than the one before", matched, missed, screened, aborted, shrank)
	if matched < 500 || missed < 500 || aborted < 500 || shrank < 500 || screened < 100 {
		t.Error("the sequences no longer cover every outcome")
	}
}
