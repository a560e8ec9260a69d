// Package lint is gclint's analysis framework: a self-contained,
// stdlib-only reimplementation of the golang.org/x/tools/go/analysis
// shape (Analyzer, Pass, Diagnostic, a driver and an analysistest-style
// harness) sized to this repository's needs. The sandbox ships no module
// dependencies, so rather than vendoring x/tools the framework builds on
// go/ast + go/types directly and loads type information through the go
// toolchain's own export data (see load.go).
//
// The analyzers it hosts enforce the kernel's concurrency invariants at
// build time — the ones no test observes reliably: the lock order,
// copy-on-write publication, one snapshot per operation and context
// propagation. Output-level contracts (zero allocations, deterministic
// output) are pinned by runtime tests instead. A small comment-annotation
// grammar drives them:
//
//	//gclint:hierarchy L1 L2 ... Ln
//	    Declares the lock hierarchy, outermost first. At most one
//	    declaration per program. Locks may only be acquired in strictly
//	    descending hierarchy position (skipping levels is fine; reverse
//	    nesting is a build error).
//	//gclint:lock <name>
//	    On a mutex-like struct field or package-level var: names the lock
//	    for the hierarchy and for acquires/requires annotations. Every
//	    named lock must either appear in the hierarchy or be marked leaf.
//	//gclint:leaf
//	    On a //gclint:lock declaration: the lock may be acquired under any
//	    other lock, but NOTHING may be acquired while it is held, nor
//	    may an acquires function or a requires function naming another
//	    lock be called.
//	//gclint:acquires <lock> [<lock>...]
//	    On a function: it internally acquires (and releases) the named
//	    locks. Call sites are checked against the hierarchy exactly like
//	    direct acquisitions.
//	//gclint:requires <lock> [<lock>...]
//	    On a function: callers must already hold the named locks. Seeds
//	    the function's own held-set; call sites missing the lock are
//	    reported (except inside function literals passed as callbacks,
//	    whose true lock context is the callee's).
//	//gclint:nolocks
//	    On a function: a no-lock stage (filtering, iso testing,
//	    verification). Any lock acquisition — direct, or via a call to an
//	    acquires-annotated function — is a build error.
//	//gclint:cow
//	    On a type: values are copy-on-write published state — immutable
//	    after publication. Writes through them are build errors
//	    (cowpublish analyzer).
//	//gclint:cowview
//	    On a function: its result is a view of COW-published state and is
//	    checked like a //gclint:cow value.
//	//gclint:mutates
//	    On a method: it mutates its receiver. Calling it on a
//	    COW-published value is a build error.
//	//gclint:snapshot, //gclint:loads, //gclint:pins, //gclint:view
//	    Snapshot cells and their operation scopes (snapshotonce).
//	//gclint:ctxstrict
//	    On a package: context.Background/TODO are build errors (ctxflow).
//	//gclint:ignore <analyzer>[,<analyzer>...] -- <reason>
//	    Waives findings of the named analyzers on the comment's line and
//	    the line below it. The reason is mandatory; a bare ignore is
//	    itself a build error.
//
// Analyzers see the whole program at once: the driver type-checks every
// module-local package into one shared FileSet + types.Info, collects
// annotations globally, and then runs each analyzer per package. That
// keeps cross-package facts (a leaf lock declared in internal/ftv,
// consulted from internal/core) trivially available without an
// export-fact protocol.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check over a loaded Program.
type Analyzer struct {
	// Name identifies the analyzer in reports and in //gclint:ignore
	// directives.
	Name string
	// Doc is a one-paragraph description.
	Doc string
	// Run analyzes one package (Pass.Pkg) and reports findings through
	// pass.Reportf. A non-nil error aborts the whole lint run.
	Run func(pass *Pass) error
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	// Prog is the whole loaded program; Pkg is the package under
	// analysis (one of Prog.Packages).
	Prog *Program
	Pkg  *Package
	// Ann holds the program-wide annotation facts.
	Ann *Annotations

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Program is a fully type-checked set of module-local packages sharing
// one FileSet and one merged types.Info, in dependency order, so one
// load serves every analyzer.
type Program struct {
	Fset     *token.FileSet
	Info     *types.Info
	Packages []*Package
}

// Package is one parsed, type-checked module-local package.
type Package struct {
	Path  string
	Types *types.Package
	Files []*ast.File
}

// Position resolves pos against the program's FileSet.
func (prog *Program) Position(pos token.Pos) token.Position {
	return prog.Fset.Position(pos)
}

// Run collects annotations, runs every analyzer over every package, and
// returns the surviving findings (waivers applied) sorted by position,
// together with the annotation fact base (the waiver inventory reads
// it). Annotation-grammar errors (unknown directives, reasonless
// ignores, undeclared lock names) are returned as diagnostics of the
// pseudo analyzer "gclint" and are never waivable.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, *Annotations, error) {
	ann, annDiags := CollectAnnotations(prog)
	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		for _, pkg := range prog.Packages {
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, Ann: ann, report: collect}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	kept := annDiags
	for _, d := range diags {
		if !ann.ignored(prog.Fset, d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		pi, pj := prog.Position(kept[i].Pos), prog.Position(kept[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return kept[i].Message < kept[j].Message
	})
	return kept, ann, nil
}
