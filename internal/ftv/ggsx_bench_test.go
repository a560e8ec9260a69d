package ftv_test

import (
	"math/rand"
	"sync"
	"testing"

	"graphcache/internal/bitset"
	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

// benchIndex is the benchmark harness's Method M: gen.Molecules(2018, 5000)
// under GGSX with maxLen 3, and a 2 000-pattern mixed pool of 4–16 edges
// drawn the way benchmark/workload.go draws its pools. Built once per
// test binary.
var benchIndex = sync.OnceValue(func() (b struct {
	dataset []*graph.Graph
	index   *ftv.GGSX
	pool    map[ftv.QueryType][]*graph.Graph
}) {
	b.dataset = gen.Molecules(rand.New(rand.NewSource(2018)), 5000, gen.DefaultMoleculeConfig())
	b.index = ftv.NewGGSX(b.dataset, 3)
	wl, err := gen.NewWorkload(rand.New(rand.NewSource(2019)), b.dataset, gen.WorkloadConfig{
		Size: 1, Mixed: true, PoolSize: 2000,
		ChainFrac: 0.5, ChainLen: 3, MinEdges: 4, MaxEdges: 16,
	})
	if err != nil {
		panic(err)
	}
	b.pool = make(map[ftv.QueryType][]*graph.Graph)
	for _, q := range wl.Pool {
		b.pool[q.Type] = append(b.pool[q.Type], q.G)
	}
	return b
})

// benchAdds are the 256 molecules BenchmarkGGSXWithGraph inserts into
// benchIndex, one chain of WithGraph calls from the base index.
var benchAdds = sync.OnceValue(func() []*graph.Graph {
	return gen.Molecules(rand.New(rand.NewSource(2020)), 256, gen.DefaultMoleculeConfig())
})

// TestGGSXIndexBytes pins the index the benchmark runs on: the all-list
// layout before the bitmap encoding reported 6 451 600 B for it, and a
// rule that only ever picks the smaller encoding cannot report more. With
// packed forward rows and posting lists, and a model that charges what
// they allocate (TestGGSXIndexBytesTracksHeap), it measured 2 174 972 B
// (2 503 848 B under the old model with 64-byte list blocks, 4 700 840
// with 8-byte row pairs as well); the packed ceiling is that plus ≤ 5 %.
func TestGGSXIndexBytes(t *testing.T) {
	const allLists, packed = 6_451_600, 2_280_000
	got := benchIndex().index.IndexBytes()
	t.Logf("5 000-molecule index: %d B (all-list layout: %d B, packed ceiling: %d B)", got, allLists, packed)
	if got > allLists {
		t.Errorf("IndexBytes %d exceeds the %d B of the all-list layout", got, allLists)
	}
	if got > packed {
		t.Errorf("IndexBytes %d exceeds the %d B ceiling of packed rows and lists", got, packed)
	}
}

var benchSink *bitset.Set

func BenchmarkGGSXCandidates(b *testing.B) {
	bi := benchIndex()
	for _, qt := range []ftv.QueryType{ftv.Subgraph, ftv.Supergraph} {
		b.Run(qt.String(), func(b *testing.B) {
			pool := bi.pool[qt]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = bi.index.Candidates(pool[i%len(pool)], qt)
			}
		})
	}
}

// BenchmarkGGSXWithGraph is the insert cost of the layout: one
// copy-on-write WithGraph per iteration on the 5 000-molecule index, each
// on top of the previous one, as Method.AddGraph chains them. Every
// len(adds) inserts the chain restarts from the base index with the timer
// stopped, so the index an insert lands on does not grow with b.N.
func BenchmarkGGSXWithGraph(b *testing.B) {
	bi, adds := benchIndex(), benchAdds()
	var f ftv.Filter
	var gid int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(adds) == 0 {
			b.StopTimer()
			f, gid = bi.index, len(bi.dataset)
			b.StartTimer()
		}
		f = f.WithGraph(gid, adds[i%len(adds)])
		gid++
	}
}

// BenchmarkVerifyCandidates is the verification stage on its own: every
// (pattern, target) pair Method M hands VF2 for the first 200 pool
// queries of each direction, precomputed so that one iteration is one
// sub-iso test, run the way the kernel runs it — a subgraph query bound
// once and matched against each of its candidates, a supergraph query
// through one-shot VF2 — plus the subgraph pairs through one-shot VF2,
// which is what binding saves. ns/op is therefore ns per test.
// recursions/test and checks/test are iso.Stats averaged over one untimed
// pass over the whole pair list after the timed loop, recursions/match
// and recursions/miss the same split by verdict, so they do not depend on
// b.N. They are deterministic: if one moves, the plan order or a pruning
// rule changed.
func BenchmarkVerifyCandidates(b *testing.B) {
	bi := benchIndex()
	for _, mode := range []struct {
		name  string
		qt    ftv.QueryType
		bound bool
	}{
		{"subgraph", ftv.Subgraph, true},
		{"subgraph-oneshot", ftv.Subgraph, false},
		{"supergraph", ftv.Supergraph, false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var pairs [][2]*graph.Graph
			queries := bi.pool[mode.qt][:200]
			for _, q := range queries {
				bi.index.Candidates(q, mode.qt).ForEach(func(gid int) bool {
					if mode.qt == ftv.Subgraph {
						pairs = append(pairs, [2]*graph.Graph{q, bi.dataset[gid]})
					} else {
						pairs = append(pairs, [2]*graph.Graph{bi.dataset[gid], q})
					}
					return true
				})
			}
			b.Logf("%d queries, %.0f tests/query", len(queries), float64(len(pairs))/float64(len(queries)))
			var m *iso.Matcher
			// test runs pair i, binding a new pattern where the bound
			// mode meets one.
			test := func(i int) (bool, iso.Stats) {
				pr := pairs[i%len(pairs)]
				if !mode.bound {
					return iso.VF2(pr[0], pr[1], iso.Options{})
				}
				if i%len(pairs) == 0 || pr[0] != pairs[i%len(pairs)-1][0] {
					if m != nil {
						m.Release()
					}
					m = iso.Bind(pr[0], iso.Options{})
				}
				return m.Match(pr[1])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				test(i)
			}
			b.StopTimer()
			var rec, checks, matches, matchRec int64
			for i := range pairs {
				ok, st := test(i)
				rec += st.Recursions
				checks += st.Candidates
				if ok {
					matches++
					matchRec += st.Recursions
				}
			}
			if m != nil {
				m.Release()
			}
			tests := int64(len(pairs))
			b.ReportMetric(float64(rec)/float64(tests), "recursions/test")
			b.ReportMetric(float64(checks)/float64(tests), "checks/test")
			b.ReportMetric(float64(matchRec)/float64(max(matches, 1)), "recursions/match")
			b.ReportMetric(float64(rec-matchRec)/float64(max(tests-matches, 1)), "recursions/miss")
		})
	}
}

// BenchmarkFirstPlan is what a graph nobody has matched before pays on
// its first test as a pattern, supergraph verification's dataset graphs
// among them: graph.MatchPlan on fresh copies of the harness's 5 000
// molecules (generated here, not taken from benchIndex, whose graphs
// other benchmarks plan), re-copied with the timer stopped each time
// every one has been planned. ns/op, B/op and allocs/op are per first
// plan.
func BenchmarkFirstPlan(b *testing.B) {
	mols := gen.Molecules(rand.New(rand.NewSource(2018)), 5000, gen.DefaultMoleculeConfig())
	fresh := make([]*graph.Graph, len(mols))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(mols) == 0 {
			b.StopTimer()
			for j, g := range mols {
				fresh[j] = g.WithID(g.ID())
			}
			b.StartTimer()
		}
		fresh[i%len(mols)].MatchPlan()
	}
}
