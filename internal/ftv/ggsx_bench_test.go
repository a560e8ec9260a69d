package ftv_test

import (
	"math/rand"
	"sync"
	"testing"

	"graphcache/internal/bitset"
	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
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

// TestGGSXIndexBytes pins the index the benchmark runs on: the all-list
// layout before the bitmap encoding reported 6 451 600 B for it, and a
// rule that only ever picks the smaller encoding cannot report more.
func TestGGSXIndexBytes(t *testing.T) {
	const allLists = 6_451_600
	got := benchIndex().index.IndexBytes()
	t.Logf("5 000-molecule index: %d B (all-list layout: %d B)", got, allLists)
	if got > allLists {
		t.Errorf("IndexBytes %d exceeds the %d B of the all-list layout", got, allLists)
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
// on top of the previous one, as Method.AddGraph chains them.
func BenchmarkGGSXWithGraph(b *testing.B) {
	bi := benchIndex()
	adds := gen.Molecules(rand.New(rand.NewSource(2020)), 256, gen.DefaultMoleculeConfig())
	var f ftv.Filter = bi.index
	gid := len(bi.dataset)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = f.(ftv.InsertableFilter).WithGraph(gid, adds[i%len(adds)])
		gid++
	}
}
