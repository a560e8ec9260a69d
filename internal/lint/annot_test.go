package lint_test

import (
	"strings"
	"testing"

	"graphcache/internal/lint"
)

// TestGrammarErrors loads the deliberately malformed testdata package
// and checks the collector rejects every bad annotation. Grammar errors
// are never waivable, so they come straight out of CollectAnnotations.
func TestGrammarErrors(t *testing.T) {
	prog, err := lint.LoadModule(".", "./testdata/src/grammar")
	if err != nil {
		t.Fatalf("loading grammar testdata: %v", err)
	}
	_, diags := lint.CollectAnnotations(prog)
	wantSubstrings := []string{
		`lock "gamma" is neither in the //gclint:hierarchy nor marked //gclint:leaf`,
		`hierarchy lock "beta" has no //gclint:lock declaration`,
		"unknown directive //gclint:bogus",
		"unknown directive //gclint:noalloc",
		"unknown directive //gclint:deterministic",
		`//gclint:acquires references undeclared lock "delta"`,
		"//gclint:ignore needs a reason",
		"//gclint:requires is not attached to a declaration",
		"//gclint:snapshot needs a name and a single-identifier declaration",
		`//gclint:loads references undeclared snapshot cell "ghost"`,
		`//gclint:loads parameter "missing" is not a parameter of loadsBadParam`,
		`//gclint:pins references undeclared snapshot cell "phantom"`,
		`//gclint:view references undeclared snapshot cell "specter"`,
		"//gclint:ctxstrict takes no arguments",
	}
	for _, want := range wantSubstrings {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing diagnostic containing %q; got:\n%s", want, render(prog, diags))
		}
	}
	if len(diags) != len(wantSubstrings) {
		t.Errorf("want %d diagnostics, got %d:\n%s", len(wantSubstrings), len(diags), render(prog, diags))
	}
}

func render(prog *lint.Program, diags []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		pos := prog.Position(d.Pos)
		b.WriteString(pos.String() + ": " + d.Message + "\n")
	}
	return b.String()
}
