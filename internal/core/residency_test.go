package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
)

// residencyDrift returns an error unless Len and Bytes agree with the
// published resident list: Len is its length, the list is ID-ordered and
// Bytes is Σ Entry.Bytes() over it. The sum is owed at the points that
// tally it — window turns and restores — not between them, where
// readers swap sets on the query path.
func residencyDrift(c *Cache) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	all := c.published.Load().all
	if got := c.Len(); got != len(all) {
		return fmt.Errorf("Len() %d, resident list %d", got, len(all))
	}
	sum := 0
	for i, e := range all {
		if i > 0 && e.ID <= all[i-1].ID {
			return fmt.Errorf("resident list not ID-ordered at %d", i)
		}
		sum += e.Bytes()
	}
	if got := c.Bytes(); got != sum {
		return fmt.Errorf("Bytes() %d, Σ Entry.Bytes() %d", got, sum)
	}
	return nil
}

// checkResidency fails the test on residencyDrift.
func checkResidency(t *testing.T, c *Cache, when string) {
	t.Helper()
	if err := residencyDrift(c); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestEntryBytesModel pins what an entry charges for its bookkeeping,
// beside its graph, trie row and answers: the Entry, its answersCell and
// the first answersAt, 192 + 24 + 24 B on a 64-bit platform. A field
// added to any of the three moves Cache.Bytes, so it shows here first.
func TestEntryBytesModel(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the sizes are a 64-bit platform's")
	}
	if got := [3]uintptr{unsafe.Sizeof(Entry{}), unsafe.Sizeof(answersCell{}), unsafe.Sizeof(answersAt{})}; got != [3]uintptr{192, 24, 24} || entryBytes != 240 {
		t.Errorf("Entry, answersCell, answersAt are %v B, entryBytes %d; want [192 24 24] and 240", got, entryBytes)
	}
	dataset := testDataset(5, 30)
	c := testCache(t, dataset, func(cfg *Config) { cfg.Window = 1 })
	if _, err := c.Execute(gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(6)), dataset[0], 4), ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("%d entries admitted, want 1", c.Len())
	}
	for _, e := range c.Entries() {
		if want := entryBytes + e.Graph.Bytes() + e.row.Bytes() + e.Answers().Bytes(); e.Bytes() != want {
			t.Errorf("entry %d charges %d B, want %d", e.ID, e.Bytes(), want)
		}
	}
}

// TestResidencyAccountAgreement asserts that Cache.Len and Cache.Bytes,
// both read off the published view, agree with its resident list — its
// length and Σ Entry.Bytes() over it — after window turns, evictions,
// live dataset mutations and a state restore, in both reconcileModes,
// with answer sets migrating containers throughout (Compact at
// admission, clone-and-compact on removals). A mutation swaps no set, so
// the total stays exact across it. With lazy=false each add is followed
// by reconcileNow, whose swapped sets the turn after it tallies.
func TestResidencyAccountAgreement(t *testing.T) {
	for _, lazy := range reconcileModes {
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			dataset := testDataset(41, 24)
			extra := testDataset(42, 4)
			w, err := gen.NewWorkload(rand.New(rand.NewSource(43)), dataset, gen.WorkloadConfig{
				Size: 80, Mixed: true, PoolSize: 30,
				ZipfS: 1.2, ChainFrac: 0.6, ChainLen: 3, MinEdges: 3, MaxEdges: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			c := testCache(t, dataset, func(cfg *Config) {
				cfg.Capacity = 12 // small: forces turns and evictions
				cfg.Window = 4
				cfg.SelfCheck = false
			})
			for i, q := range w.Queries {
				if _, err := c.Execute(q.G, q.Type); err != nil {
					t.Fatal(err)
				}
				if i%17 == 0 {
					checkResidency(t, c, fmt.Sprintf("after query %d", i))
				}
			}
			if c.Stats().Evictions == 0 || c.Stats().WindowTurns == 0 {
				t.Fatal("workload too tame: no evictions or turns")
			}
			checkResidency(t, c, "after workload")

			// Dataset mutations: additions grow answer sets when an entry
			// is read (or right away, by reconcileNow); removals clear
			// bits when it is read or at the next turn.
			for i, g := range extra {
				if _, err := c.AddGraph(g); err != nil {
					t.Fatal(err)
				}
				checkResidency(t, c, fmt.Sprintf("after add %d", i))
				if !lazy {
					if err := reconcileNow(c); err != nil {
						t.Fatalf("after add %d: %v", i, err)
					}
					turnNow(c)
				}
			}
			if err := c.RemoveGraph(0); err != nil {
				t.Fatal(err)
			}
			checkResidency(t, c, "after remove")
			// Touch entries so reconciliation swaps answer sets outside mu;
			// the next turn tallies the swapped sets.
			for _, e := range c.Entries() {
				if _, err := c.Execute(e.Graph, e.Type); err != nil {
					t.Fatal(err)
				}
			}
			turnNow(c)
			checkResidency(t, c, "after reconciling hits and a turn")

			// Save/restore replaces the list and its total.
			var buf bytes.Buffer
			if err := c.WriteState(&buf); err != nil {
				t.Fatal(err)
			}
			if err := c.ReadState(&buf); err != nil {
				t.Fatal(err)
			}
			checkResidency(t, c, "after restore")
			if c.Len() == 0 {
				t.Fatal("restore left the cache empty")
			}
		})
	}
}
