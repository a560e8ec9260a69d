package core

import (
	"testing"
	"time"

	"graphcache/internal/ftv"
	"graphcache/internal/graph"
)

// TestExactHitCarriesNoStageTime: an exact hit reads no clock, so it adds
// nothing to the Monitor's stage times and reports 0 for each of its own.
func TestExactHitCarriesNoStageTime(t *testing.T) {
	c, qs := admittedPatterns(t, 3, nil)
	before := c.Stats()
	for i := 0; i < 1000; i++ {
		res, err := c.Execute(qs[i%len(qs)], ftv.Subgraph)
		if err != nil {
			t.Fatal(err)
		}
		if !res.ExactHit {
			t.Fatalf("query %d: not an exact hit", i)
		}
		if res.FilterTime != 0 || res.HitTime != 0 || res.VerifyTime != 0 {
			t.Fatalf("query %d: exact hit carries stage time filter=%v hit=%v verify=%v",
				i, res.FilterTime, res.HitTime, res.VerifyTime)
		}
	}
	after := c.Stats()
	if after.ExactHits-before.ExactHits != 1000 {
		t.Fatalf("%d exact hits counted, want 1000", after.ExactHits-before.ExactHits)
	}
	if after.FilterTime != before.FilterTime || after.HitTime != before.HitTime || after.VerifyTime != before.VerifyTime {
		t.Errorf("exact hits moved the stage times: filter %v→%v, hit %v→%v, verify %v→%v",
			before.FilterTime, after.FilterTime, before.HitTime, after.HitTime, before.VerifyTime, after.VerifyTime)
	}
}

// TestEmptyResultSetsAreShared: every provably empty Excluded/Survivors
// is the cache's one frozen empty set, sized to the query's dataset view
// — including after an addition grows it.
func TestEmptyResultSetsAreShared(t *testing.T) {
	c, qs := admittedPatterns(t, 2, nil)
	exact := func() *Result {
		t.Helper()
		res, err := c.Execute(qs[0], ftv.Subgraph)
		if err != nil || !res.ExactHit {
			t.Fatalf("exact=%v err=%v, want an exact hit", res != nil && res.ExactHit, err)
		}
		return res
	}
	a, b := exact(), exact()
	n := c.Method().View().Size()
	if a.Excluded != b.Excluded || a.Excluded != a.Survivors || b.Excluded != b.Survivors {
		t.Fatal("two exact hits on one dataset state returned distinct empty sets")
	}
	if a.Excluded.Len() != n || a.Excluded.Count() != 0 {
		t.Fatalf("shared empty set: len %d count %d, want len %d count 0", a.Excluded.Len(), a.Excluded.Count(), n)
	}

	if _, err := c.AddGraph(testDataset(133, 1)[0]); err != nil {
		t.Fatal(err)
	}
	grown := exact()
	if got := grown.Excluded.Len(); got != n+1 || grown.Excluded.Count() != 0 || grown.Survivors != grown.Excluded {
		t.Fatalf("after AddGraph: empty set len %d count %d (shared with Survivors: %v), want len %d",
			got, grown.Excluded.Count(), grown.Survivors == grown.Excluded, n+1)
	}
	if a.Excluded.Len() != n {
		t.Error("the memo's rebuild resized a set an earlier Result holds")
	}

	// A miss that no pruning hit narrowed excludes nothing: the same set.
	// Labels outside the dataset's alphabet keep every cached pattern out
	// of the query.
	for _, l := range []graph.Label{100, 102} {
		g := graph.NewBuilder(2).SetLabels([]graph.Label{l, l + 1}).AddEdge(0, 1).MustBuild()
		res, err := c.Execute(g, ftv.Subgraph)
		if err != nil {
			t.Fatal(err)
		}
		if res.ExactHit || res.SuperHitCount() > 0 {
			t.Fatalf("foreign-label pattern hit the cache (exact=%v, %d super hits)", res.ExactHit, res.SuperHitCount())
		}
		if res.Excluded != grown.Excluded {
			t.Error("a miss with no pruning hit built its own empty Excluded")
		}
	}
}

// TestMissStageTimesPartitionTheCall: a non-exact query's three stage
// times are disjoint offsets from one clock origin, so they are never
// negative, never sum past the call's own wall time, and the Monitor's
// totals are exactly their sums.
func TestMissStageTimesPartitionTheCall(t *testing.T) {
	bs := newBenchStreams(t, 120, 64, nil)
	c := bs.cache
	before := c.Stats()
	var filter, hit, verify time.Duration
	var hits, verified int
	for i := range max(len(bs.misses), len(bs.subhits)) {
		for _, stream := range [][]*graph.Graph{bs.misses, bs.subhits} {
			if i >= len(stream) {
				continue
			}
			t0 := time.Now()
			res, err := c.Execute(stream[i], ftv.Subgraph)
			wall := time.Since(t0)
			if err != nil {
				t.Fatal(err)
			}
			if res.ExactHit {
				t.Fatalf("stream member %d is an exact hit", i)
			}
			if res.FilterTime < 0 || res.HitTime < 0 || res.VerifyTime < 0 {
				t.Fatalf("negative stage time: filter=%v hit=%v verify=%v", res.FilterTime, res.HitTime, res.VerifyTime)
			}
			if sum := res.FilterTime + res.HitTime + res.VerifyTime; sum > wall {
				t.Fatalf("stage times sum to %v, past the call's %v", sum, wall)
			}
			if len(res.Hits) > 0 {
				hits++
			}
			if res.Tests > 0 {
				verified++
			}
			filter += res.FilterTime
			hit += res.HitTime
			verify += res.VerifyTime
		}
	}
	if hits == 0 || verified == 0 {
		t.Fatalf("stream unsuitable: %d queries with hits, %d that verified", hits, verified)
	}
	after := c.Stats()
	if d := after.FilterTime - before.FilterTime; d != filter {
		t.Errorf("Snapshot.FilterTime moved %v, Results sum to %v", d, filter)
	}
	if d := after.HitTime - before.HitTime; d != hit {
		t.Errorf("Snapshot.HitTime moved %v, Results sum to %v", d, hit)
	}
	if d := after.VerifyTime - before.VerifyTime; d != verify {
		t.Errorf("Snapshot.VerifyTime moved %v, Results sum to %v", d, verify)
	}
}
