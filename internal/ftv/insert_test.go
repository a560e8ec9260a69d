package ftv_test

import (
	"math/rand"
	"slices"
	"testing"

	"graphcache/internal/bitset"
	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// insertableBuilders is every bundled filter, GGSX at the default and at
// the label-level path length, built directly (not through a method) so
// the incremental inserts can be compared against from-scratch rebuilds
// over the identical dataset slice.
func insertableBuilders() map[string]func([]*graph.Graph) ftv.Filter {
	return map[string]func([]*graph.Graph) ftv.Filter{
		"ggsx":  func(ds []*graph.Graph) ftv.Filter { return ftv.NewGGSX(ds, 3) },
		"ggsx1": func(ds []*graph.Graph) ftv.Filter { return ftv.NewGGSX(ds, 1) },
		"none":  func(ds []*graph.Graph) ftv.Filter { return ftv.NewNoFilter(len(ds)) },
	}
}

// TestWithGraphEquivalentToRebuild is the incremental-insert correctness
// property: after any sequence of WithGraph inserts (interleaved with
// tombstones in the dataset slice), the incremental filter's candidate
// sets — masked by the live ids exactly like DatasetView.Candidates does
// — are byte-identical to a filter rebuilt from scratch over the final
// dataset, for a spread of queries in both directions. The index itself is
// the same too: IndexBytes equals that of a build over every graph ever
// indexed (a tombstone removes nothing from a filter, so that build keeps
// the graphs the dataset slice has since dropped).
func TestWithGraphEquivalentToRebuild(t *testing.T) {
	base := molecules(31, 10)
	extra := molecules(32, 6)
	rng := rand.New(rand.NewSource(33))
	queries := make([]*graph.Graph, 8)
	for i := range queries {
		src := base[i%len(base)]
		if i%3 == 2 {
			src = extra[i%len(extra)]
		}
		queries[i] = gen.ExtractConnectedSubgraph(rng, src, 3+i%4)
	}

	for name, build := range insertableBuilders() {
		t.Run(name, func(t *testing.T) {
			dataset := append([]*graph.Graph(nil), base...)
			indexed := append([]*graph.Graph(nil), base...)
			incr := build(dataset)
			step := func(what string) {
				t.Helper()
				rebuilt := build(dataset)
				live := liveMask(dataset)
				for qi, q := range queries {
					for _, qt := range []ftv.QueryType{ftv.Subgraph, ftv.Supergraph} {
						got := incr.Candidates(q, qt)
						got.And(live)
						want := rebuilt.Candidates(q, qt)
						want.And(live)
						if !got.Equal(want) {
							t.Fatalf("%s: query %d (%s): incremental candidates %v, rebuilt %v",
								what, qi, qt, got, want)
						}
					}
				}
				if got, want := incr.IndexBytes(), build(indexed).IndexBytes(); got != want {
					t.Fatalf("%s: incremental IndexBytes %d, from-scratch build %d", what, got, want)
				}
			}
			step("initial")
			for i, g := range extra {
				gid := len(dataset)
				dataset = append(dataset, g)
				indexed = append(indexed, g)
				incr = incr.WithGraph(gid, g)
				// Interleave a tombstone so the insert path is exercised
				// over datasets with holes (the filter keeps its postings;
				// the live mask hides them, like the method does).
				if i%2 == 1 {
					dataset[i] = nil
				}
				step("after insert")
			}
		})
	}
}

// liveMask returns the non-tombstoned positions of dataset as a bitset.
func liveMask(dataset []*graph.Graph) *bitset.Set {
	s := bitset.New(len(dataset))
	for i, g := range dataset {
		if g != nil {
			s.Add(i)
		}
	}
	return s
}

// TestWithGraphLeavesReceiverIntact pins the copy-on-write contract at
// the filter level: a filter snapshot taken before an insert keeps
// answering exactly as before — the new gid never leaks into it, and its
// candidate sets stay sized to the old id space.
func TestWithGraphLeavesReceiverIntact(t *testing.T) {
	base := molecules(41, 8)
	extra := molecules(42, 3)
	q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(43)), base[0], 4)

	for name, build := range insertableBuilders() {
		t.Run(name, func(t *testing.T) {
			old := build(base)
			var before [2]string
			for i, qt := range []ftv.QueryType{ftv.Subgraph, ftv.Supergraph} {
				before[i] = old.Candidates(q, qt).String()
			}
			oldBytes := old.IndexBytes()

			f := old
			for i, g := range extra {
				f = f.WithGraph(len(base)+i, g)
			}
			for i, qt := range []ftv.QueryType{ftv.Subgraph, ftv.Supergraph} {
				c := old.Candidates(q, qt)
				if c.Len() != len(base) {
					t.Fatalf("old filter's candidate capacity grew to %d", c.Len())
				}
				if c.String() != before[i] {
					t.Fatalf("old filter's %s candidates changed: %s vs %s", qt, c.String(), before[i])
				}
			}
			if old.IndexBytes() != oldBytes {
				t.Fatalf("old filter's IndexBytes changed: %d vs %d", old.IndexBytes(), oldBytes)
			}
			if f.IndexBytes() < oldBytes {
				t.Fatalf("%s: grown filter reports fewer bytes (%d) than its base (%d)", name, f.IndexBytes(), oldBytes)
			}
		})
	}
}

// TestAddGraphUsesIncrementalInsert: AddGraph patches the filter into the
// one a build over the grown dataset produces.
func TestAddGraphUsesIncrementalInsert(t *testing.T) {
	base := molecules(51, 8)
	extra := molecules(52, 4)

	m := ftv.NewGGSXMethod(base, 3)
	for _, g := range extra {
		if _, err := m.AddGraph(g); err != nil {
			t.Fatal(err)
		}
	}
	rebuilt := ftv.NewGGSXMethod(append(slices.Clone(base), extra...), 3)
	if got, want := m.Filter().IndexBytes(), rebuilt.Filter().IndexBytes(); got != want {
		t.Errorf("inserted GGSX index %d bytes, rebuilt %d", got, want)
	}
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 6; i++ {
		q := gen.ExtractConnectedSubgraph(rng, extra[i%len(extra)], 3+i%3)
		for _, qt := range []ftv.QueryType{ftv.Subgraph, ftv.Supergraph} {
			a, b := m.Run(q, qt), rebuilt.Run(q, qt)
			if !a.Answers.Equal(b.Answers) || a.CandidateCount != b.CandidateCount {
				t.Fatalf("query %d (%s): inserted %v (%d candidates), rebuilt %v (%d)",
					i, qt, a.Answers, a.CandidateCount, b.Answers, b.CandidateCount)
			}
		}
	}
}
