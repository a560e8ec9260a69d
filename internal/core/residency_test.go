package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"graphcache/internal/bitset"
	"graphcache/internal/gen"
)

// residentWalk returns the resident list and sums its static bytes the
// slow way — the charge the residency account must equal — and the intern
// pool's byte account the slow way: the distinct canonical sets the
// resident entries hold references on, each counted once. The pool only
// retains sets with live references, so the second sum must reproduce
// pool.bytes exactly.
func residentWalk(c *Cache) (entries []*Entry, static, interned int) {
	c.policyMu.Lock()
	defer c.policyMu.Unlock()
	seen := make(map[*internNode]bool)
	for _, e := range c.entries {
		static += e.staticBytes
		if e.interned != nil && !seen[e.interned] {
			seen[e.interned] = true
			interned += e.interned.set.Bytes()
		}
	}
	return slices.Clone(c.entries), static, interned
}

// fingerprintDrift returns an error unless every materialized answer
// state — admitted or window-pending — carries its set's from-scratch
// Fingerprint(), and every admitted entry's pool node is bucketed under
// the fingerprint of the set it holds. This is what lets mutations and
// window turns derive fingerprints instead of computing them: one drifted
// ±ElemHash would silently split or merge pool buckets. Pending lazy
// bodies carry no fingerprint and are skipped (never faulted by the
// check).
func fingerprintDrift(c *Cache) (err error) {
	check := func(e *Entry) {
		st := e.answers()
		if err != nil || st.body != nil {
			return
		}
		if want := st.set.Fingerprint(); st.fp != want {
			err = fmt.Errorf("entry %d carries fingerprint %x, its set hashes to %x", e.ID, st.fp, want)
		} else if nd := e.interned; nd != nil && nd.fp != nd.set.Fingerprint() {
			err = fmt.Errorf("entry %d interned under %x, the canonical hashes to %x", e.ID, nd.fp, nd.set.Fingerprint())
		}
	}
	c.windowMu.Lock()
	defer c.windowMu.Unlock()
	c.policyMu.Lock()
	defer c.policyMu.Unlock()
	for _, list := range [][]*Entry{c.window, c.entries} {
		for _, e := range list {
			check(e)
		}
	}
	return err
}

// checkResidency fails unless the atomic residency account, the intern
// pool's account and the resident list agree, the list is ID-ordered, and
// every carried fingerprint is true (fingerprintDrift).
func checkResidency(t *testing.T, c *Cache, when string) {
	t.Helper()
	entries, static, poolBytes := residentWalk(c)
	if got := c.Len(); got != len(entries) {
		t.Fatalf("%s: Len() %d, resident list %d", when, got, len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].ID <= entries[i-1].ID {
			t.Fatalf("%s: resident list not ID-ordered at %d", when, i)
		}
	}
	if got := int(c.res.bytes.Load()); got != static {
		t.Fatalf("%s: residency account %d bytes, resident walk %d", when, got, static)
	}
	if got := int(c.pool.bytes.Load()); got != poolBytes {
		t.Fatalf("%s: pool account %d bytes, distinct interned sets hold %d", when, got, poolBytes)
	}
	if got, want := c.Bytes(), static+poolBytes; got != want {
		t.Fatalf("%s: Bytes() %d, resident walk + pool %d", when, got, want)
	}
	if err := fingerprintDrift(c); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestResidencyAccountAgreement asserts that the atomic residency account
// (now backing Cache.Len and, with the intern pool's account, Cache.Bytes)
// and the resident list agree after window turns, evictions, state
// save/restore cycles and live dataset mutations in both reconciliation
// modes — with answer sets migrating containers (Compact at admission,
// clone-and-compact on removals) and interning across entries throughout.
func TestResidencyAccountAgreement(t *testing.T) {
	for _, lazy := range []bool{false, true} {
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
				cfg.LazyReconcile = lazy
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

			// Dataset mutations: additions grow answer sets (and, eagerly,
			// the byte accounts); removals clear bits.
			for i, g := range extra {
				if _, err := c.AddGraph(g); err != nil {
					t.Fatal(err)
				}
				checkResidency(t, c, fmt.Sprintf("after add %d", i))
			}
			if err := c.RemoveGraph(0); err != nil {
				t.Fatal(err)
			}
			checkResidency(t, c, "after remove")
			// RemoveGraph trues every entry up against the pool under the
			// full hierarchy, so the accounts must now equal the TRUE
			// resident footprint — static bytes per entry plus each
			// distinct published answer set once (summing Entry.Bytes
			// would double-count sets interning has collapsed) — in lazy
			// mode too, where earlier hit-path swaps bypassed the pool
			// until this pass.
			trueBytes := 0
			seen := make(map[*bitset.Set]bool)
			for _, e := range c.Entries() {
				a := e.Answers()
				trueBytes += e.Bytes() - a.Bytes()
				if !seen[a] {
					seen[a] = true
					trueBytes += a.Bytes()
				}
			}
			if got := c.Bytes(); got != trueBytes {
				t.Fatalf("after remove: Bytes() %d, true footprint %d", got, trueBytes)
			}
			// Touch entries so lazy reconciliation swaps answer sets, then
			// re-check the accounts still agree.
			for _, e := range c.Entries() {
				if _, err := c.Execute(e.Graph, e.Type); err != nil {
					t.Fatal(err)
				}
			}
			checkResidency(t, c, "after reconciling hits")

			// Save/restore resets and rebuilds both views.
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
