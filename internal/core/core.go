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
	// Serialized, SharedWindow, IndexOff and LazyReconcile have no effect:
	// nothing reads them (dataset additions always reconcile when an entry
	// is next read, see mutate.go). They stay declared only because the
	// benchmark harness assigns them in its serialized, shared_window,
	// index_off and lazy_reconcile sweep rows.
	Serialized, SharedWindow, IndexOff, LazyReconcile bool
	// SelfCheck re-executes every query on the base method and panics on
	// any answer mismatch. For tests and demos only.
	SelfCheck bool
}

// The hit budgets. A query Method M left at least largeQueryCandidates
// candidates exploits up to largeQueryHitCap sub and largeQueryHitCap
// super hits; any other query stops at smallQueryHitCap per direction. A
// q↔h probe costs about four dataset tests and only about a third
// confirm, so an accepted hit costs some twelve tests of probing, and
// hits beyond the small cap cannot pay that back on a smaller candidate
// set. hitIsoBudget caps VF2 recursions per q↔h containment test: an
// aborted test is treated as "no hit" (sound: hits only ever shrink work,
// never correctness).
const (
	largeQueryCandidates = 128
	largeQueryHitCap     = 16
	smallQueryHitCap     = 4
	hitIsoBudget         = 20000
)

// DefaultConfig mirrors the demo deployment: a 50-entry cache, a 10-query
// admission window and HD replacement.
func DefaultConfig() Config {
	return Config{
		Capacity: 50,
		Window:   10,
		Policy:   nil, // NewHD() at construction, avoiding shared state
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
	return nil
}
