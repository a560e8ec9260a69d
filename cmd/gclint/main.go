// Command gclint is the repo's concurrency contract checker: a
// multichecker running the lockorder, cowpublish, snapshotonce and
// ctxflow analyzers (internal/lint/...) over the module — the contracts
// only static analysis can check. `make lint` invokes it as
// `gclint ./...`; any finding is a build error.
//
// Usage:
//
//	gclint [-C dir] [-json] [-waivers] [packages]
//
// Packages default to ./... resolved in -C (default the current
// directory). The module is loaded and type-checked exactly once and
// shared across the whole suite.
//
//   - -json emits diagnostics as a JSON array ({analyzer, file, line,
//     col, message}, file relative to -C) instead of text — the CI
//     workflow turns these into GitHub Actions ::error annotations.
//   - -waivers switches to inventory mode: instead of linting, list
//     every //gclint:ignore directive with its mandatory reason (text,
//     or JSON with -json) so waiver growth stays reviewable.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"graphcache/internal/lint"
	"graphcache/internal/lint/cowpublish"
	"graphcache/internal/lint/ctxflow"
	"graphcache/internal/lint/lockorder"
	"graphcache/internal/lint/snapshotonce"
)

// analyzers is the full suite, in reporting order.
var analyzers = []*lint.Analyzer{
	lockorder.Analyzer,
	cowpublish.Analyzer,
	snapshotonce.Analyzer,
	ctxflow.Analyzer,
}

// errFindings distinguishes "the code has findings" (exit 1, findings
// already printed) from operational failures (load/type-check errors).
var errFindings = errors.New("findings reported")

// jsonDiagnostic is the -json wire shape of one finding.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// jsonWaiver is the -waivers -json wire shape of one //gclint:ignore.
type jsonWaiver struct {
	File      string   `json:"file"`
	Line      int      `json:"line"`
	Analyzers []string `json:"analyzers"`
	Reason    string   `json:"reason"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		if !errors.Is(err, errFindings) {
			fmt.Fprintf(os.Stderr, "gclint: %v\n", err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gclint", flag.ContinueOnError)
	fs.SetOutput(stdout)
	dir := fs.String("C", ".", "directory to resolve package patterns in")
	asJSON := fs.Bool("json", false, "emit structured JSON instead of text")
	waivers := fs.Bool("waivers", false, "inventory //gclint:ignore directives instead of linting")
	fs.Usage = func() {
		fmt.Fprintf(stdout, "usage: gclint [-C dir] [-json] [-waivers] [packages]\n\n"+
			"Runs the gclint analyzer suite (%s) over the packages\n"+
			"(default ./...). Any finding fails the run.\n\n", analyzerNames())
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	prog, err := lint.LoadModule(*dir, patterns...)
	if err != nil {
		return err
	}
	diags, ann, err := lint.Run(prog, analyzers)
	if err != nil {
		return err
	}

	// relativize points findings at -C-relative paths, which is what
	// both humans and the CI annotation step want.
	absDir, absErr := filepath.Abs(*dir)
	relativize := func(file string) string {
		if absErr != nil {
			return file
		}
		if rel, err := filepath.Rel(absDir, file); err == nil {
			return rel
		}
		return file
	}

	if *waivers {
		ws := make([]jsonWaiver, 0, len(ann.Waivers))
		for _, w := range ann.Waivers {
			ws = append(ws, jsonWaiver{
				File:      relativize(w.File),
				Line:      w.Line,
				Analyzers: w.Analyzers,
				Reason:    w.Reason,
			})
		}
		sort.Slice(ws, func(i, j int) bool {
			if ws[i].File != ws[j].File {
				return ws[i].File < ws[j].File
			}
			return ws[i].Line < ws[j].Line
		})
		if *asJSON {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(ws)
		}
		for _, w := range ws {
			fmt.Fprintf(stdout, "%s:%d: waives %v -- %s\n", w.File, w.Line, w.Analyzers, w.Reason)
		}
		fmt.Fprintf(stdout, "gclint: %d waiver(s)\n", len(ws))
		return nil
	}

	if *asJSON {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			pos := prog.Position(d.Pos)
			out = append(out, jsonDiagnostic{
				Analyzer: d.Analyzer,
				File:     relativize(pos.Filename),
				Line:     pos.Line,
				Col:      pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		for _, d := range diags {
			pos := prog.Position(d.Pos)
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", relativize(pos.Filename), pos.Line, pos.Column, d.Analyzer, d.Message)
		}
	}

	if len(diags) > 0 {
		if !*asJSON {
			fmt.Fprintf(stdout, "gclint: %d finding(s)\n", len(diags))
		}
		return errFindings
	}
	return nil
}

func analyzerNames() string {
	names := ""
	for i, a := range analyzers {
		if i > 0 {
			names += ", "
		}
		names += a.Name
	}
	return names
}
