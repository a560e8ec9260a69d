package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// TestLazyCompactionWaitsForColdestEntry pins the compaction floor rule:
// the log keeps every record the coldest (stalest) entry still needs, and
// drops them the moment that entry reconciles — never earlier.
func TestLazyCompactionWaitsForColdestEntry(t *testing.T) {
	dataset := testDataset(111, 10)
	extra := testDataset(112, 4)
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Window = 1 // admit (and turn) on every query
	})
	q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(113)), dataset[0], 4)
	if _, err := c.Execute(q, ftv.Subgraph); err != nil { // entry at epoch 0
		t.Fatal(err)
	}

	// Three lazy additions: the epoch-0 entry pins all three records
	// through every compaction opportunity.
	for i := 0; i < 3; i++ {
		if _, err := c.AddGraph(extra[i]); err != nil {
			t.Fatal(err)
		}
		if got := c.Stats().AdditionLogLen; got != i+1 {
			t.Fatalf("after lazy add %d: log length %d, want %d (stale entry must pin the log)", i, got, i+1)
		}
	}

	// An exact hit reconciles the entry to the current epoch (epoch 3)...
	res, err := c.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ExactHit {
		t.Fatal("expected an exact hit on the stale entry")
	}
	// ...so the next mutation's compaction drops everything the entry
	// passed: the three old records go, only the new mutation's survives.
	if _, err := c.AddGraph(extra[3]); err != nil {
		t.Fatal(err)
	}
	snap := c.Stats()
	if snap.AdditionLogLen != 1 {
		t.Fatalf("log length after reconciliation + add: %d, want 1", snap.AdditionLogLen)
	}
	if snap.LogRecordsDropped != 3 {
		t.Fatalf("records dropped %d, want 3", snap.LogRecordsDropped)
	}
}

// TestAdditionLogBoundedUnderSustainedAdds is the boundedness acceptance
// property: a sustained add/query stream keeps the log at O(1) — every
// round's queries reconcile the resident entries, so the floor tracks the
// epoch and compaction (at window turns and at the mutations'
// stop-the-world passes) continuously drains the tail. Runs in both
// reconcileModes: with lazy=false each add is followed by reconcileNow
// before the round's queries.
func TestAdditionLogBoundedUnderSustainedAdds(t *testing.T) {
	for _, lazy := range reconcileModes {
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			dataset := testDataset(121, 12)
			stream := testDataset(122, 30)
			c := testCache(t, dataset, func(cfg *Config) {
				cfg.Window = 2
			})
			rng := rand.New(rand.NewSource(123))
			pool := make([]*queryCase, 3)
			for i := range pool {
				pool[i] = &queryCase{g: gen.ExtractConnectedSubgraph(rng, dataset[i], 4), qt: ftv.Subgraph}
			}
			maxLog := 0
			for round, g := range stream {
				if _, err := c.AddGraph(g); err != nil {
					t.Fatal(err)
				}
				if !lazy {
					if err := reconcileNow(c); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
				}
				// Touch every pool pattern: first executions admit, later
				// ones exact-hit and reconcile, and the window (size 2)
				// turns at least once per round.
				for _, p := range pool {
					if _, err := c.Execute(p.g, p.qt); err != nil {
						t.Fatal(err)
					}
				}
				logLen := c.Stats().AdditionLogLen
				if logLen > maxLog {
					maxLog = logLen
				}
				if round > 2 && logLen > 4 {
					t.Fatalf("round %d: log length %d — compaction is not keeping up", round, logLen)
				}
			}
			snap := c.Stats()
			if snap.DatasetAdds != int64(len(stream)) {
				t.Fatalf("adds %d, want %d", snap.DatasetAdds, len(stream))
			}
			if maxLog >= len(stream)/2 {
				t.Fatalf("max log length %d over %d adds: unbounded growth", maxLog, len(stream))
			}
			if snap.LogCompactions == 0 {
				t.Fatal("no compaction ever fired")
			}
		})
	}
}

// TestSiblingCompactionKeepsAnswersExact: two caches over one method. The
// first one's entry goes stale across three additions, then a turn of the
// second compacts the shared addition log to its own entries' floor. The
// stale entry must still reconcile all three additions.
func TestSiblingCompactionKeepsAnswersExact(t *testing.T) {
	dataset := testDataset(141, 10)
	a := testCache(t, dataset, func(cfg *Config) {
		cfg.Window = 1
		cfg.SelfCheck = false // checked below, as an error rather than a panic
	})
	rng := rand.New(rand.NewSource(142))
	q := gen.ExtractConnectedSubgraph(rng, dataset[2], 4)
	if _, err := a.Execute(q, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.AddGraph(dataset[2]); err != nil { // q embeds in every copy
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.Window = 1
	b := MustNew(a.Method(), cfg)
	if _, err := b.Execute(gen.ExtractConnectedSubgraph(rng, dataset[5], 4), ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	if n := a.Method().AdditionLogLen(); n != 0 {
		t.Fatalf("%d addition records survive the second cache's turn; the scenario did not arm", n)
	}
	res, err := a.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if want := a.Method().Run(q, ftv.Subgraph).Answers; !res.ExactHit || !res.Answers.Equal(want) {
		t.Fatalf("exact=%v, answers %v; uncached %v", res.ExactHit, res.Answers, want)
	}
}

// queryCase pairs a pattern with its semantics for reuse across rounds.
type queryCase struct {
	g  *graph.Graph
	qt ftv.QueryType
}

// TestRestoreAfterCompactionCannotSkipRecords is the compaction ×
// persistence regression: the v2 state format carries no epochs, so
// ReadState stamps restored entries with the CURRENT epoch. That stamp is
// only sound because additions since the write are impossible to restore
// across — they grow the id space, and a size mismatch is refused — so a
// compacted log can never hide a record a restored entry still needed.
// The test pins both directions: a restore across additions (and hence
// across their compacted records) is refused, and a same-size restore
// stamps entries that reconcile future additions exactly.
func TestRestoreAfterCompactionCannotSkipRecords(t *testing.T) {
	dataset := testDataset(131, 10)
	extra := testDataset(132, 3)
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Window = 1
	})
	q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(133)), dataset[1], 4)
	if _, err := c.Execute(q, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	var state bytes.Buffer
	if err := c.WriteState(&state); err != nil {
		t.Fatal(err)
	}

	// Mutate past the written state: two additions, then reconcile the
	// resident entry (exact hit) so the next mutation's compaction drops
	// their records.
	for i := 0; i < 2; i++ {
		if _, err := c.AddGraph(extra[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Execute(q, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGraph(extra[2]); err != nil {
		t.Fatal(err)
	}
	if c.Stats().LogRecordsDropped == 0 {
		t.Fatal("compaction never dropped the reconciled records; the regression scenario did not arm")
	}

	// The state predates the additions whose records were compacted away:
	// restoring it would stamp its entries with the current epoch and
	// silently skip those additions forever. The size check must refuse it.
	err := c.ReadState(bytes.NewReader(state.Bytes()))
	if err == nil {
		t.Fatal("ReadState accepted a state file from before compacted additions")
	}
	if !strings.Contains(err.Error(), "dataset") {
		t.Fatalf("refusal should blame the dataset size, got: %v", err)
	}

	// Same-size restores (removals only since the write) stay exact: the
	// current-epoch stamp skips nothing because nothing was added, and a
	// LATER addition is reconciled through the intact log tail.
	c2 := testCache(t, testDataset(131, 10), func(cfg *Config) {
		cfg.Window = 1
	})
	if _, err := c2.Execute(q, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	var state2 bytes.Buffer
	if err := c2.WriteState(&state2); err != nil {
		t.Fatal(err)
	}
	if err := c2.RemoveGraph(0); err != nil {
		t.Fatal(err)
	}
	if err := c2.ReadState(bytes.NewReader(state2.Bytes())); err != nil {
		t.Fatal(err)
	}
	epoch := c2.Method().Epoch()
	for _, e := range c2.Entries() {
		if e.DatasetEpoch() != epoch {
			t.Fatalf("restored entry %d stamped epoch %d, want current %d", e.ID, e.DatasetEpoch(), epoch)
		}
	}
	if _, err := c2.AddGraph(dataset[1]); err != nil { // q embeds in it by construction
		t.Fatal(err)
	}
	res, err := c2.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if want := c2.Method().Run(q, ftv.Subgraph).Answers; !res.Answers.Equal(want) {
		t.Fatalf("restored entry diverges after post-restore addition: %v vs %v", res.Answers, want)
	}
}
