package main

import "testing"

func TestFig3Shape(t *testing.T) {
	res, err := RunFig3(2018)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Figure 3 shape: a warmed 50-entry cache, both hit kinds
	// present, pruned candidates, test speedup > 1.
	if res.CachedQueries == 0 {
		t.Fatal("cache not warmed")
	}
	if res.SubHits == 0 {
		t.Error("no sub-case hit (paper: 1)")
	}
	if res.SuperHits == 0 {
		t.Error("no super-case hit (paper: 3)")
	}
	if res.C >= res.CM {
		t.Errorf("no pruning: C=%d CM=%d", res.C, res.CM)
	}
	// R and S are disjoint (S is removed from C before verification), so
	// A = R + S exactly (Figure 3(h): "A consists of R and S").
	if res.A != res.R+res.S {
		t.Errorf("A=%d != R+S=%d+%d", res.A, res.R, res.S)
	}
	if len(res.SureIDs) != res.S || len(res.AnswerIDs) != res.A {
		t.Error("ID lists inconsistent with counts")
	}
	if res.TestSpeedup <= 1 {
		t.Errorf("test speedup %.2f, want > 1 (paper: 1.74)", res.TestSpeedup)
	}
}
