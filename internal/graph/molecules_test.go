package graph_test

import (
	"math/rand"
	"testing"

	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// harnessMolecules is the benchmark harness's dataset: gen.Molecules,
// seed 2018, 5 000 molecules.
func harnessMolecules() []*graph.Graph {
	return gen.Molecules(rand.New(rand.NewSource(2018)), 5000, gen.DefaultMoleculeConfig())
}

// BenchmarkBuildMolecules is the graph layer's memory on the harness's
// dataset: one Builder.Build per iteration, cycling over builders loaded
// with the 5 000 molecules (building one again builds the same graph).
// B/op is a graph's header and block, allocs/op its allocations: 2.
//
//	go test -run '^$' -bench BuildMolecules -benchmem -memprofile graph_mem.pprof ./internal/graph/
func BenchmarkBuildMolecules(b *testing.B) {
	mols := harnessMolecules()
	builders := make([]*graph.Builder, len(mols))
	for i, g := range mols {
		builders[i] = graph.NewBuilder(g.N()).SetID(i).SetLabels(g.Labels())
		for _, e := range g.Edges() {
			builders[i].AddEdge(e[0], e[1])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := builders[i%len(builders)].Build(); err != nil {
			b.Fatal(err)
		}
	}
}
