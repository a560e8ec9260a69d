package main

import (
	"bytes"
	"strings"
	"testing"
)

// Smoke: a tiny workload run must complete cleanly and render its tables.
func TestRunWorkloadSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-size", "6", "-seed", "7", "-policies", "none"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"The Workload Run", "cumulative:", "test-speedup"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-size", "many"}, &out); err == nil {
		t.Error("bad workload size accepted")
	}
	if err := run([]string{"-policy", "nosuch"}, &out); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := run([]string{"-size", "2", "-policies", "lru,nosuch"}, &out); err == nil {
		t.Error("unknown policy in the replacement comparison accepted")
	}
	// The measuring modes live in benchmark/ now; their flags are gone,
	// not ignored.
	err := run([]string{"-throughput"}, &out)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("-throughput: got %v, want an undefined-flag error", err)
	}
}
