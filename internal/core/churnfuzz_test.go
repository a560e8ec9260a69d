package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
)

// Property-based churn fuzzing: testing/quick drives random interleavings
// of Execute/AddGraph/RemoveGraph through a SelfCheck-armed cache, so any
// answer that diverges from the uncached method — after any mutation
// history — panics inside Execute and fails the property. Failing op
// strings are shrunk to a minimal reproducer before reporting, and the
// whole suite runs with a bounded op budget (maxChurnOps per case) so the
// -race CI pass stays fast.

// maxChurnOps bounds the per-case op budget.
const maxChurnOps = 48

// churnOpsDataset/churnOpsExtras are the fixed, immutable inputs every
// fuzz case starts from (graphs are never mutated, so sharing across
// cases is safe; each case builds its own method and cache).
var (
	churnOpsDataset = testDataset(141, 14)
	churnOpsExtras  = testDataset(142, 8)
)

// churnOpPool derives the deterministic query pool: mixed sub/super
// patterns extracted from the base dataset.
func churnOpPool() []queryCase {
	rng := rand.New(rand.NewSource(143))
	pool := make([]queryCase, 8)
	for i := range pool {
		qt := ftv.Subgraph
		if i%3 == 2 {
			qt = ftv.Supergraph
		}
		pool[i] = queryCase{g: gen.ExtractConnectedSubgraph(rng, churnOpsDataset[i%len(churnOpsDataset)], 3+i%4), qt: qt}
	}
	return pool
}

var churnOpsPool = churnOpPool()

// runChurnOps interprets ops over a fresh SelfCheck-armed cache: op%4
// selects execute (0, 1 — queries dominate, like real streams), add (2)
// or remove (3); the remaining bits pick the pattern/victim. It returns
// the first correctness violation (SelfCheck panics are recovered into
// errors so the shrinker can replay candidate op strings), or nil when
// the whole interleaving stayed exact. With lazy false every add is
// followed, after the invariant checks, by reconcileNow.
func runChurnOps(ops []byte, lazy bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("kernel panic: %v", r)
		}
	}()
	method := ftv.NewGGSXMethod(churnOpsDataset, 3)
	cfg := DefaultConfig()
	cfg.Capacity = 8
	cfg.Window = 2
	cfg.SelfCheck = true
	c := MustNew(method, cfg)

	nextExtra := 0
	for i, op := range ops {
		switch op % 4 {
		case 0, 1:
			q := churnOpsPool[int(op/4)%len(churnOpsPool)]
			if _, err := c.Execute(q.g, q.qt); err != nil {
				return fmt.Errorf("op %d: execute: %w", i, err)
			}
		case 2:
			if _, err := c.AddGraph(churnOpsExtras[nextExtra%len(churnOpsExtras)]); err != nil {
				return fmt.Errorf("op %d: add: %w", i, err)
			}
			nextExtra++
		case 3:
			info := c.DatasetInfo()
			if info.Live <= 1 {
				continue
			}
			view := c.Method().View()
			gid := int(op/4) % info.Size
			for view.Graph(gid) == nil {
				gid = (gid + 1) % info.Size
			}
			if err := c.RemoveGraph(gid); err != nil {
				return fmt.Errorf("op %d: remove %d: %w", i, gid, err)
			}
		}
		// Structural invariants after every op: capacity is strict, and the
		// byte total is exact wherever it is owed (after a turn:
		// queries swap sets outside mu until the next one, so each
		// mutation is followed by one).
		if c.Len() > cfg.Capacity {
			return fmt.Errorf("op %d: %d entries resident, capacity %d", i, c.Len(), cfg.Capacity)
		}
		if op%4 >= 2 {
			turnNow(c)
			if err := residencyDrift(c); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		}
		if !lazy && op%4 == 2 {
			if err := reconcileNow(c); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		}
	}

	// Endgame: every admitted entry re-executes byte-identical to the
	// uncached method over the final dataset (Entries and the exact hits
	// reconcile any remaining staleness on the way).
	for _, e := range c.Entries() {
		res, err := c.Execute(e.Graph, e.Type)
		if err != nil {
			return fmt.Errorf("endgame entry %d: %w", e.ID, err)
		}
		if want := method.Run(e.Graph, e.Type).Answers; !res.Answers.Equal(want) {
			return fmt.Errorf("endgame entry %d: answers %v, uncached %v", e.ID, res.Answers, want)
		}
	}
	return nil
}

// clampOps bounds a generated op string to the fuzzer's op budget.
func clampOps(raw []byte) []byte {
	if len(raw) > maxChurnOps {
		raw = raw[:maxChurnOps]
	}
	return raw
}

// shrinkOps greedily minimizes a failing op string: first by halving,
// then by deleting single ops, as long as the failure reproduces. The
// result is the smallest interleaving the greedy pass can reach — short
// enough to read off the bug.
func shrinkOps(ops []byte, fails func([]byte) bool) []byte {
	cur := append([]byte(nil), ops...)
	for changed := true; changed; {
		changed = false
		for _, cand := range [][]byte{cur[:len(cur)/2], cur[len(cur)/2:]} {
			if len(cand) < len(cur) && fails(cand) {
				cur = append([]byte(nil), cand...)
				changed = true
				break
			}
		}
		if changed {
			continue
		}
		for i := 0; i < len(cur); i++ {
			cand := append(append([]byte(nil), cur[:i]...), cur[i+1:]...)
			if fails(cand) {
				cur = cand
				changed = true
				break
			}
		}
	}
	return cur
}

// TestQuickChurnInterleavings is the churn fuzzer: seeded testing/quick
// op strings under three seeds (shardsSeed) in both reconcileModes, every
// answer cross-checked byte-identical against the uncached method by
// SelfCheck. A failure is shrunk to a minimal op string before being
// reported, so the log line is a replayable reproducer.
func TestQuickChurnInterleavings(t *testing.T) {
	for _, lazy := range reconcileModes {
		for _, shards := range []int{1, 4, 32} {
			t.Run(fmt.Sprintf("lazy=%v/shards=%d", lazy, shards), func(t *testing.T) {
				seed := shardsSeed(151, shards)
				if lazy {
					seed += 1000
				}
				prop := func(raw []byte) bool {
					return runChurnOps(clampOps(raw), lazy) == nil
				}
				qc := &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(seed))}
				err := quick.Check(prop, qc)
				if err == nil {
					return
				}
				ce, ok := err.(*quick.CheckError)
				if !ok {
					t.Fatal(err)
				}
				ops := clampOps(ce.In[0].([]byte))
				min := shrinkOps(ops, func(o []byte) bool { return runChurnOps(o, lazy) != nil })
				t.Fatalf("churn interleaving #%d failed; minimal reproducer ops=%v (lazy=%v): %v",
					ce.Count, min, lazy, runChurnOps(min, lazy))
			})
		}
	}
}

// TestShrinkOpsMinimizes pins the shrinker itself: for a synthetic
// failure predicate ("contains byte 7"), the minimal string is exactly
// one op long.
func TestShrinkOpsMinimizes(t *testing.T) {
	fails := func(ops []byte) bool {
		for _, b := range ops {
			if b == 7 {
				return true
			}
		}
		return false
	}
	ops := []byte{1, 2, 3, 7, 4, 5, 6, 8, 9, 10, 11, 12}
	min := shrinkOps(ops, fails)
	if len(min) != 1 || min[0] != 7 {
		t.Fatalf("shrunk to %v, want [7]", min)
	}
}
