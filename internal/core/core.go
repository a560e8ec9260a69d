package core

import (
	"fmt"

	"graphcache/internal/ftv"
)

// decayFactor ages PIN/PINC utilities at every window turn, keeping the
// policies workload-adaptive.
const decayFactor = 0.8

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
	// MaxSubHits and MaxSuperHits are per-direction ceilings on the hits
	// a query exploits; 0 disables detection in that direction. Only a
	// query Method M left at least largeQueryCandidates candidates may
	// reach them: any other query stops at min(ceiling,
	// smallQueryHitCap). A q↔h probe costs about four dataset tests and
	// only about a third confirm, so an accepted hit costs some twelve
	// tests of probing, and hits beyond the small cap cannot pay that
	// back on a smaller candidate set.
	MaxSubHits, MaxSuperHits int
	// HitIsoBudget caps VF2 recursions per q↔h containment test; 0 means
	// unlimited. An aborted test is treated as "no hit" (sound: hits only
	// ever shrink work, never correctness).
	HitIsoBudget int64
	// Serialized, SharedWindow, IndexOff and LazyReconcile have no effect:
	// nothing reads them (dataset additions always reconcile when an entry
	// is next read, see mutate.go). They stay declared only because the
	// benchmark harness assigns them in its serialized, shared_window,
	// index_off and lazy_reconcile sweep rows.
	Serialized, SharedWindow, IndexOff, LazyReconcile bool
	// MemoryBudget, when positive, caps the estimated resident bytes of
	// cached entries (graphs + answer sets); eviction triggers on overflow
	// even below Capacity.
	MemoryBudget int
	// SelfCheck re-executes every query on the base method and panics on
	// any answer mismatch. For tests and demos only.
	SelfCheck bool
}

// largeQueryCandidates and smallQueryHitCap gate the hit budgets (see
// Config.MaxSubHits): a query with fewer candidates exploits at most
// smallQueryHitCap hits per direction.
const (
	largeQueryCandidates = 128
	smallQueryHitCap     = 4
)

// DefaultConfig mirrors the demo deployment: a 50-entry cache, a 10-query
// admission window, HD replacement, and up to 16 sub and 16 super hits
// per query (4 each below 128 candidates).
func DefaultConfig() Config {
	return Config{
		Capacity:     50,
		Window:       10,
		Policy:       nil, // NewHD() at construction, avoiding shared state
		MaxSubHits:   16,
		MaxSuperHits: 16,
		HitIsoBudget: 20000,
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
	if c.MaxSubHits < 0 || c.MaxSuperHits < 0 {
		return fmt.Errorf("core: hit budgets must be non-negative")
	}
	if c.HitIsoBudget < 0 {
		return fmt.Errorf("core: hit iso budget must be non-negative (0 = unlimited), got %d", c.HitIsoBudget)
	}
	if c.MemoryBudget < 0 {
		return fmt.Errorf("core: memory budget must be non-negative (0 = off), got %d", c.MemoryBudget)
	}
	return nil
}
