package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// listedPackage is the subset of `go list -json` output the loader
// needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Module     *struct{ Path string }
	Standard   bool
	Export     string
	GoFiles    []string
	Imports    []string
	Incomplete bool
	Error      *struct{ Err string }
}

// LoadModule type-checks the packages matched by patterns (and their
// module-local dependencies) from source into one shared FileSet and
// merged types.Info. Standard-library dependencies are imported from
// the toolchain's export data, which `go list -export` materializes in
// the build cache — no network, no source re-check.
func LoadModule(dir string, patterns ...string) (*Program, error) {
	args := append([]string{"list", "-deps", "-export", "-json=Dir,ImportPath,Name,Module,Standard,Export,GoFiles,Imports,Incomplete,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %w\n%s", err, stderr.String())
	}

	// go list -deps emits packages in dependency order: every import of a
	// package precedes it in the stream.
	var listed []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		listed = append(listed, lp)
	}

	fset := token.NewFileSet()
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}

	// Export data for non-module packages, keyed by import path.
	exports := map[string]string{}
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	}
	stdImporter := importer.ForCompiler(fset, "gc", lookup)

	// checked accumulates source-checked module-local packages so later
	// packages in the deps stream resolve imports to the SAME
	// types.Package (and hence the same types.Objects).
	checked := map[string]*types.Package{}
	imp := &hybridImporter{std: stdImporter, local: checked}

	var prog Program
	prog.Fset = fset
	prog.Info = info
	for _, lp := range listed {
		if lp.Module == nil || lp.Standard {
			continue
		}
		files := make([]*ast.File, 0, len(lp.GoFiles))
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %w", name, err)
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = tpkg
		prog.Packages = append(prog.Packages, &Package{Path: lp.ImportPath, Types: tpkg, Files: files})
	}
	if len(prog.Packages) == 0 {
		return nil, fmt.Errorf("no module-local packages matched %v", patterns)
	}
	return &prog, nil
}

// hybridImporter resolves module-local imports to already source-checked
// packages and everything else through gc export data.
type hybridImporter struct {
	std   types.Importer
	local map[string]*types.Package
}

func (h *hybridImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := h.local[path]; ok {
		return pkg, nil
	}
	return h.std.Import(path)
}
