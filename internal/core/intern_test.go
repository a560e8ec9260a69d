package core

import (
	"testing"

	"graphcache/internal/bitset"
	"graphcache/internal/ftv"
	"graphcache/internal/graph"
)

// TestInternPoolRefcount exercises the pool's lifecycle directly: equal
// sets collapse onto one canonical charged once, references count down to
// removal, and nil/drained/orphaned releases can never unbalance the
// account.
func TestInternPoolRefcount(t *testing.T) {
	p := newInternPool()
	mk := func(bits ...int) *bitset.Set {
		s := bitset.New(100)
		for _, b := range bits {
			s.Add(b)
		}
		s.Compact()
		return s
	}
	acquire := func(s *bitset.Set) *internNode { return p.acquire(s, s.Fingerprint()) }
	a, b, other := mk(3, 40), mk(3, 40), mk(7)

	na := acquire(a)
	if na.set != a {
		t.Fatalf("first acquire returned %p, want the set itself %p", na.set, a)
	}
	if got := acquire(b); got != na {
		t.Fatal("equal-content acquire did not collapse onto the pooled canonical")
	}
	if h, m := p.hits.Load(), p.misses.Load(); h != 1 || m != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", h, m)
	}
	if got := int(p.bytes.Load()); got != a.Bytes() {
		t.Fatalf("shared set charged %d bytes, want once = %d", got, a.Bytes())
	}
	nother := acquire(other)
	if nother.set != other {
		t.Fatal("distinct set interned onto an unequal canonical")
	}
	if got := p.distinctSets(); got != 2 {
		t.Fatalf("distinctSets = %d, want 2", got)
	}

	p.release(na) // refs 2→1: stays pooled
	if got := p.distinctSets(); got != 2 {
		t.Fatalf("released to 1 ref but distinctSets = %d", got)
	}
	p.release(na) // refs 1→0: evicted from the pool
	if got := p.distinctSets(); got != 1 {
		t.Fatalf("last release left distinctSets = %d, want 1", got)
	}
	if got := int(p.bytes.Load()); got != other.Bytes() {
		t.Fatalf("account %d bytes after last release, want %d", got, other.Bytes())
	}
	p.release(nil) // no-op
	p.release(na)  // drained node: no-op
	if got := int(p.bytes.Load()); got != other.Bytes() {
		t.Fatal("nil/drained release moved the byte account")
	}
	p.release(nother)
	if p.distinctSets() != 0 || p.bytes.Load() != 0 {
		t.Fatalf("drained pool holds %d sets / %d bytes", p.distinctSets(), p.bytes.Load())
	}

	// A node orphaned by reset (a restore clears the shards without
	// releasing) must not debit the fresh account when it finally drains.
	orphan := acquire(a)
	p.reset()
	fresh := acquire(other)
	p.release(orphan)
	if got := int(p.bytes.Load()); got != other.Bytes() || p.distinctSets() != 1 {
		t.Fatalf("orphan release left %d bytes / %d sets, want %d / 1", got, p.distinctSets(), other.Bytes())
	}
	p.release(fresh)
}

// TestInternPoolCapacityTwins: the fingerprint sees no capacity (a Grown
// set keeps its fingerprint), so the same bits at two dataset sizes land
// in ONE bucket — and must stay two canonicals, kept apart by Equal, with
// the byte account exact once both are released. This is the transient
// every dataset add creates for every resident answer set.
func TestInternPoolCapacityTwins(t *testing.T) {
	p := newInternPool()
	small := bitset.FromIndices(100, []int{3, 40, 41})
	big := small.Grown(101)
	if small.Fingerprint() != big.Fingerprint() {
		t.Fatal("Grown changed the fingerprint")
	}
	ns, nb := p.acquire(small, small.Fingerprint()), p.acquire(big, big.Fingerprint())
	if ns == nb || ns.set != small || nb.set != big {
		t.Fatal("sets differing only in capacity were interned onto one canonical")
	}
	if len(p.m) != 1 || p.distinctSets() != 2 {
		t.Fatalf("want one bucket holding two canonicals, got %d buckets / %d sets", len(p.m), p.distinctSets())
	}
	if got, want := int(p.bytes.Load()), small.Bytes()+big.Bytes(); got != want {
		t.Fatalf("account %d bytes, want both twins = %d", got, want)
	}
	// An Equal third set finds its twin among the two.
	if got := p.acquire(big.Clone(), big.Fingerprint()); got != nb {
		t.Fatal("equal set did not collapse onto its same-capacity twin")
	}
	p.release(nb)
	p.release(ns) // releasing one twin must leave the other bucketed
	if p.distinctSets() != 1 || int(p.bytes.Load()) != big.Bytes() {
		t.Fatalf("after releasing the small twin: %d sets / %d bytes", p.distinctSets(), p.bytes.Load())
	}
	p.release(nb)
	if len(p.m) != 0 || p.bytes.Load() != 0 {
		t.Fatalf("drained pool holds %d buckets / %d bytes", len(p.m), p.bytes.Load())
	}
}

// TestCacheAnswerInterning drives interning end to end: two structurally
// different queries with identical (empty) answer sets must end up
// publishing ONE shared canonical set, visible in the entries, the stats
// and the byte accounting.
func TestCacheAnswerInterning(t *testing.T) {
	dataset := testDataset(91, 12)
	c := testCache(t, dataset, func(cfg *Config) { cfg.Window = 1 })
	// Labels 50+ never occur in the molecule dataset (Labels: 6), so both
	// queries match nothing — equal answer sets from unequal graphs.
	q1 := graph.NewBuilder(2).SetLabels([]graph.Label{50, 51}).AddEdge(0, 1).MustBuild()
	q2 := graph.NewBuilder(3).SetLabels([]graph.Label{50, 51, 52}).
		AddEdge(0, 1).AddEdge(1, 2).MustBuild()
	for _, q := range []*graph.Graph{q1, q2} {
		if _, err := c.Execute(q, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
	entries := c.Entries()
	if len(entries) != 2 {
		t.Fatalf("admitted %d entries, want 2", len(entries))
	}
	if entries[0].Answers() != entries[1].Answers() {
		t.Fatal("equal answer sets were not interned onto one canonical")
	}
	snap := c.Stats()
	if snap.InternHits == 0 {
		t.Fatal("no intern hit recorded for the shared set")
	}
	if snap.AnswerBytes != int64(entries[0].Answers().Bytes()) {
		t.Fatalf("AnswerBytes %d, want the one canonical's %d",
			snap.AnswerBytes, entries[0].Answers().Bytes())
	}
	// The ledger must charge the shared set once: Bytes() is strictly less
	// than the sum of standalone entry footprints.
	sum := 0
	for _, e := range entries {
		sum += e.Bytes()
	}
	if got := c.Bytes(); got >= sum {
		t.Fatalf("Bytes() %d did not dedupe the shared set (Σ standalone = %d)", got, sum)
	}
}
