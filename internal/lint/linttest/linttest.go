// Package linttest is gclint's analysistest counterpart: it loads a
// package from an analyzer's testdata/src tree, runs a set of analyzers
// over it, and matches the findings against `// want "regex"` comments
// in the testdata source. Every finding must be wanted and every want
// must find — extra or missing diagnostics fail the test.
package linttest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"graphcache/internal/lint"
)

// expectation is one `// want` pattern at a file:line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads testdata/src/<pkg> relative to dir (the analyzer package's
// directory), runs the analyzers, and compares diagnostics against the
// `// want` comments. Annotation-grammar errors surface as diagnostics
// of the pseudo-analyzer "gclint" and can be wanted like any other.
func Run(t *testing.T, dir string, analyzers []*lint.Analyzer, pkg string) {
	t.Helper()
	prog, err := lint.LoadModule(dir, "./"+filepath.ToSlash(filepath.Join("testdata", "src", pkg)))
	if err != nil {
		t.Fatalf("loading testdata package %s: %v", pkg, err)
	}
	diags, _, err := lint.Run(prog, analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}

	wants := collectWants(t, prog)
	for _, d := range diags {
		pos := prog.Position(d.Pos)
		if !match(wants, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s:%d: unexpected %s diagnostic: %s", filepath.Base(pos.Filename), pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched `want %q`", filepath.Base(w.file), w.line, w.pattern)
		}
	}
}

// match marks and reports the first unmatched expectation at file:line
// whose pattern matches msg.
func match(wants []*expectation, file string, line int, msg string) bool {
	for _, w := range wants {
		if w.matched || w.file != file || w.line != line {
			continue
		}
		if w.pattern.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants parses `// want "p1" "p2"` comments across the program.
func collectWants(t *testing.T, prog *lint.Program) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					pos := prog.Position(c.Pos())
					pats, err := parsePatterns(text)
					if err != nil {
						t.Fatalf("%s:%d: bad want comment: %v", pos.Filename, pos.Line, err)
					}
					for _, p := range pats {
						re, err := regexp.Compile(p)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, p, err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
					}
				}
			}
		}
	}
	return wants
}

// parsePatterns splits a want payload into its quoted regexps.
func parsePatterns(s string) ([]string, error) {
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out, nil
		}
		if s[0] != '"' {
			return nil, fmt.Errorf("expected quoted pattern, found %q", s)
		}
		// strconv.QuotedPrefix finds the extent of the leading quoted
		// string, escapes included.
		q, err := strconv.QuotedPrefix(s)
		if err != nil {
			return nil, err
		}
		p, err := strconv.Unquote(q)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		s = s[len(q):]
	}
}
