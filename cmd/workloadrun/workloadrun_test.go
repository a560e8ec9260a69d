package main

import "testing"

func TestReplacementDiffers(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	rs, err := RunReplacement(17, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 5 {
		t.Fatalf("policies = %d", len(rs))
	}
	// Figure 2(c) shape: each policy evicts (cache was full, a window
	// arrived) and at least two policies differ in their victim sets.
	distinct := map[string]bool{}
	for _, r := range rs {
		if len(r.Evicted) == 0 {
			t.Errorf("%s evicted nothing", r.Policy)
		}
		key := ""
		for _, id := range r.Evicted {
			key += string(rune(id)) + ","
		}
		distinct[key] = true
	}
	if len(distinct) < 2 {
		t.Error("all policies evicted identical sets")
	}
}

func TestWorkloadRunSteps(t *testing.T) {
	steps, c, err := RunWorkload(19, 10, "hd")
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 10 {
		t.Fatalf("steps = %d", len(steps))
	}
	if c.Len() == 0 {
		t.Error("cache empty after run")
	}
	anyHit := false
	for _, s := range steps {
		if s.HitPct < 0 || s.HitPct > 100 {
			t.Errorf("step %d: hit pct %.1f out of range", s.Index, s.HitPct)
		}
		if s.SubHits+s.SuperHits > 0 || s.ExactHit {
			anyHit = true
		}
	}
	if !anyHit {
		t.Error("workload run produced no hits at all")
	}
}
