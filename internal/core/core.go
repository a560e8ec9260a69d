package core

import (
	"fmt"

	"graphcache/internal/ftv"
)

// Config parameterizes a Cache. The zero value is unusable; start from
// DefaultConfig.
type Config struct {
	// Capacity is the maximum number of cached queries (the demo uses 50),
	// enforced exactly at every window turn.
	Capacity int
	// Window is the admission-window size W: executed queries are buffered
	// and admitted in batches of Window (the demo workload size is 10).
	Window int
	// Policy is the replacement policy. Nil defaults to HD, the paper's
	// "when in doubt" recommendation.
	Policy Policy
	// MaxSubHits and MaxSuperHits bound how many hits of each kind are
	// exploited per query, so hit-detection cost cannot swamp its benefit.
	MaxSubHits, MaxSuperHits int
	// FeatureLen is the path-feature length of the cache's query index
	// (the iGQ-style pre-filter applied before any q↔h iso test).
	FeatureLen int
	// HitIsoBudget caps VF2 recursions per q↔h containment test; 0 means
	// unlimited. An aborted test is treated as "no hit" (sound: hits only
	// ever shrink work, never correctness).
	HitIsoBudget int64
	// Shards is the number of lock shards admitted entries are partitioned
	// across by graph fingerprint. 0 selects DefaultShards; 1 yields a
	// single-shard cache. Sequential query streams are deterministic, and
	// their answers, hit classes and cache contents are identical at every
	// shard count.
	Shards int
	// Serialized, when set, takes one global exclusive lock for the whole
	// of each Execute call — the pre-sharding engine's behavior. It is the
	// measurable baseline for the parallel-throughput benchmarks and the
	// reference configuration for the sharded-equivalence tests.
	Serialized bool
	// SharedWindow has no effect: the single admission window it used to
	// select is the only engine. The field stays declared because the
	// benchmark harness assigns it; nothing reads it.
	SharedWindow bool
	// IndexOff disables the global cache-entry feature index: hit
	// detection falls back to scanning an ID-ordered snapshot of every
	// shard with size/label/path-dominance pre-filtering only — the
	// pre-index engine. It is the measurable baseline for the
	// indexed-vs-unindexed hit-detection comparison; answers are provably
	// identical either way (the index only prunes provable non-hits).
	IndexOff bool
	// LazyReconcile defers answer-set maintenance for dataset ADDITIONS:
	// instead of verifying the new graph against every cached entry at
	// AddGraph time (the eager default), entries keep a per-entry dataset
	// epoch and a hit on a stale entry verifies only the graphs added
	// since that epoch (the method's addition log) before its answers are
	// trusted. Reconciliation cost then lands on the queries that actually
	// touch an entry — better under high churn with skewed hit patterns —
	// at the price of per-hit latency jitter. Removals are always applied
	// eagerly (clearing a bit needs no iso test). Answers are exact in
	// both modes.
	LazyReconcile bool
	// MemoryBudget, when positive, caps the estimated resident bytes of
	// cached entries (graphs + answer sets); eviction triggers on overflow
	// even below Capacity.
	MemoryBudget int
	// DecayFactor ages PIN/PINC utilities at every window turn, keeping
	// policies workload-adaptive. Must be in (0, 1]; 1 disables aging.
	DecayFactor float64
	// SelfCheck re-executes every query on the base method and panics on
	// any answer mismatch. For tests and demos only.
	SelfCheck bool
}

// DefaultConfig mirrors the demo deployment: a 50-entry cache, a 10-query
// admission window, HD replacement.
func DefaultConfig() Config {
	return Config{
		Capacity:     50,
		Window:       10,
		Policy:       nil, // NewHD() at construction, avoiding shared state
		MaxSubHits:   4,
		MaxSuperHits: 4,
		FeatureLen:   2,
		HitIsoBudget: 20000,
		DecayFactor:  0.8,
	}
}

func (c *Config) validate(method *ftv.Method) error {
	if method == nil {
		return fmt.Errorf("core: nil method")
	}
	if c.Capacity <= 0 {
		return fmt.Errorf("core: capacity must be positive, got %d", c.Capacity)
	}
	if c.Window <= 0 {
		return fmt.Errorf("core: window must be positive, got %d", c.Window)
	}
	if c.DecayFactor <= 0 || c.DecayFactor > 1 {
		return fmt.Errorf("core: decay factor must be in (0,1], got %v", c.DecayFactor)
	}
	if c.MaxSubHits < 0 || c.MaxSuperHits < 0 {
		return fmt.Errorf("core: hit budgets must be non-negative")
	}
	if c.FeatureLen < 0 {
		return fmt.Errorf("core: feature length must be non-negative")
	}
	if c.Shards < 0 {
		return fmt.Errorf("core: shard count must be non-negative, got %d", c.Shards)
	}
	return nil
}
