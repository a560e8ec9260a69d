package core

import (
	"math/rand"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
)

// driveQueries pushes n extracted-subgraph queries through the cache.
func driveQueries(t *testing.T, c *Cache, seed int64, n int) {
	t.Helper()
	dataset := c.Method().Dataset()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[i%len(dataset)], 3+i%5)
		if _, err := c.Execute(q, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
}

// summariesView returns the published summary slices, one per non-empty
// shard.
func (c *Cache) summariesView() [][]indexEntry {
	parts := make([][]indexEntry, 0, len(c.shards))
	for _, sh := range c.shards {
		if p := sh.summaries.Load(); p != nil && len(*p) > 0 {
			parts = append(parts, *p)
		}
	}
	return parts
}

// The published index — the union of the per-shard summary slices — must
// mirror the admitted entries exactly after every sequential query: the
// same entry set, each shard's slice ID-ordered, each summary agreeing
// with its entry.
func TestIndexMirrorsAdmittedEntries(t *testing.T) {
	dataset := testDataset(91, 20)
	cfg := DefaultConfig()
	cfg.Capacity = 8 // force evictions
	cfg.Window = 3
	c := MustNew(ftv.NewGGSXMethod(dataset, 3), cfg)

	check := func() {
		byID := map[int]indexEntry{}
		for _, part := range c.summariesView() {
			for i, ie := range part {
				if i > 0 && ie.e.ID <= part[i-1].e.ID {
					t.Fatalf("shard summary slice not ID-ordered at %d", i)
				}
				if _, dup := byID[ie.e.ID]; dup {
					t.Fatalf("entry %d published by two shards", ie.e.ID)
				}
				byID[ie.e.ID] = ie
			}
		}
		entries := c.Entries()
		if len(byID) != len(entries) {
			t.Fatalf("index has %d entries, cache %d", len(byID), len(entries))
		}
		for _, e := range entries {
			ie, ok := byID[e.ID]
			if !ok {
				t.Fatalf("admitted entry %d missing from the index", e.ID)
			}
			if ie.fv != e.FV || ie.featBits != e.FeatureBits {
				t.Fatalf("entry %d: index summary diverges from entry", e.ID)
			}
		}
	}
	check() // empty cache: empty (nil) index
	rng := rand.New(rand.NewSource(92))
	for i := 0; i < 30; i++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[i%len(dataset)], 3+i%5)
		if _, err := c.Execute(q, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
		check()
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("workload too tame: no evictions exercised")
	}
}

// Admitted entries must carry their immutable feature summaries, and the
// summaries must agree with recomputation from the pattern graph.
func TestEntrySummariesPopulated(t *testing.T) {
	dataset := testDataset(93, 15)
	cfg := DefaultConfig()
	cfg.Window = 2
	c := MustNew(ftv.NewGGSXMethod(dataset, 3), cfg)
	driveQueries(t, c, 94, 8)
	entries := c.Entries()
	if len(entries) == 0 {
		t.Fatal("nothing admitted")
	}
	for _, e := range entries {
		if e.FV != ftv.ExtractFeatures(e.Graph) {
			t.Errorf("entry %d: stored feature vector diverges from its graph", e.ID)
		}
		if e.FV.Vertices == 0 || e.FV.LabelBits == 0 {
			t.Errorf("entry %d: empty feature summary", e.ID)
		}
	}
}

// IndexOff must keep the index unpublished and the pruned counter at zero.
func TestIndexOffBaseline(t *testing.T) {
	dataset := testDataset(95, 15)
	cfg := DefaultConfig()
	cfg.Window = 2
	cfg.IndexOff = true
	c := MustNew(ftv.NewGGSXMethod(dataset, 3), cfg)
	driveQueries(t, c, 96, 10)
	if got := c.summariesView(); len(got) != 0 {
		t.Errorf("IndexOff cache published %d shard summary slices", len(got))
	}
	snap := c.Stats()
	if snap.HitIndexPruned != 0 {
		t.Errorf("IndexOff cache counted %d index-pruned entries", snap.HitIndexPruned)
	}
	if snap.HitScanEntries == 0 || snap.HitFullChecks == 0 {
		t.Error("baseline scan counters never moved")
	}
}

// Results served through the index must stay exact against the uncached
// method (SelfCheck panics on any mismatch).
func TestIndexSelfCheck(t *testing.T) {
	dataset := testDataset(97, 25)
	cfg := DefaultConfig()
	cfg.Capacity = 10
	cfg.Window = 3
	cfg.SelfCheck = true
	c := MustNew(ftv.NewGGSXMethod(dataset, 3), cfg)
	dsRng := rand.New(rand.NewSource(98))
	for i := 0; i < 40; i++ {
		q := gen.ExtractConnectedSubgraph(dsRng, dataset[i%len(dataset)], 2+i%6)
		qt := ftv.Subgraph
		if i%3 == 0 {
			qt = ftv.Supergraph
		}
		if _, err := c.Execute(q, qt); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().HitIndexPruned == 0 {
		t.Error("index never pruned on a mixed workload")
	}
}
