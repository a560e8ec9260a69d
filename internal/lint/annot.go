package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockInfo describes one //gclint:lock declaration.
type LockInfo struct {
	// Name is the hierarchy/annotation name of the lock.
	Name string
	// Leaf marks a //gclint:leaf lock: acquirable under anything,
	// nothing acquirable under it.
	Leaf bool
}

// SnapshotInfo describes one //gclint:snapshot declaration: an atomic
// cell publishing copy-on-write state that operations must load exactly
// once per scope (the snapshotonce analyzer).
type SnapshotInfo struct {
	// Name is the annotation name of the cell.
	Name string
}

// LoadFact is one //gclint:loads record on a function: calling it loads
// the named snapshot cell. Param optionally names the parameter that
// carries the cell's owner (e.g. the entry whose answer cell is read);
// empty means the method receiver owns the cell.
type LoadFact struct {
	Cell  string
	Param string
}

// Waiver is one //gclint:ignore directive with its mandatory reason —
// the unit of the `gclint -waivers` inventory.
type Waiver struct {
	// File and Line locate the directive (the waiver covers that line
	// and the one below).
	File string
	Line int
	// Analyzers are the waived analyzer names.
	Analyzers []string
	// Reason is the text after "--".
	Reason string
}

// Annotations is the program-wide fact base collected from //gclint:
// comments. Maps are keyed by types.Object, which the shared-importer
// loader keeps identical across packages.
type Annotations struct {
	// Hierarchy lists the ordered lock names, outermost first.
	Hierarchy []string
	rank      map[string]int

	// Locks maps a lock field/var object to its declaration.
	Locks map[types.Object]*LockInfo
	// lockNames is every declared lock name (hierarchy validation).
	lockNames map[string]bool

	// Acquires/Requires map function objects to lock names.
	Acquires map[types.Object][]string
	Requires map[types.Object][]string
	// NoLocks marks no-lock stage functions.
	NoLocks map[types.Object]bool
	// Cow marks COW-published types; CowView marks functions returning
	// views of COW-published state; Mutates marks receiver-mutating
	// methods.
	Cow     map[types.Object]bool
	CowView map[types.Object]bool
	Mutates map[types.Object]bool

	// Snapshots maps an atomic-cell field/var object to its
	// //gclint:snapshot declaration; snapshotNames is every declared
	// cell name (reference validation).
	Snapshots     map[types.Object]*SnapshotInfo
	snapshotNames map[string]bool
	// Loads maps function objects to the snapshot cells a call loads;
	// Pins marks operation-scope functions that must pin ONE snapshot of
	// the named cells (snapshotonce analyzer).
	Loads map[types.Object][]LoadFact
	Pins  map[types.Object][]string
	// Views maps a type object to the snapshot cell it is the pinned
	// view of: a function holding a parameter of that type must not
	// re-load the cell.
	Views map[types.Object]string
	// CtxStrict is the set of package paths declaring //gclint:ctxstrict:
	// context.Background/TODO are diagnostics there (ctxflow analyzer).
	CtxStrict map[string]bool

	// Waivers inventories every //gclint:ignore with its reason.
	Waivers []Waiver

	// ignores maps filename -> line -> analyzer names waived there.
	ignores map[string]map[int][]string
}

// HierarchyRank returns the hierarchy position of lock name (0 =
// outermost) and whether the name is ranked at all. Leaf locks are
// unranked by construction.
func (a *Annotations) HierarchyRank(name string) (int, bool) {
	r, ok := a.rank[name]
	return r, ok
}

// LockByName returns the LockInfo declared under name, or nil.
func (a *Annotations) LockByName(name string) *LockInfo {
	for _, li := range a.Locks {
		if li.Name == name {
			return li
		}
	}
	return nil
}

// SnapshotCell returns the SnapshotInfo of the cell declared on obj, or
// nil when obj is not an annotated snapshot cell.
func (a *Annotations) SnapshotCell(obj types.Object) *SnapshotInfo {
	if obj == nil {
		return nil
	}
	return a.Snapshots[obj]
}

// ignored reports whether d is waived by a //gclint:ignore directive on
// its line or the line above (a standalone ignore covers the next line).
func (a *Annotations) ignored(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	lines, ok := a.ignores[pos.Filename]
	if !ok {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[line] {
			if name == d.Analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}

const directivePrefix = "//gclint:"

// directive is one parsed //gclint: comment line.
type directive struct {
	pos  token.Pos
	name string
	args string
}

// parseDirectiveText parses one raw comment text ("//gclint:name args")
// into a directive, reporting whether the text carries the gclint
// prefix at all. This is the grammar's single tokenization point — the
// FuzzParseAnnotation target drives it directly.
func parseDirectiveText(text string) (name, args string, ok bool) {
	rest, ok := strings.CutPrefix(text, directivePrefix)
	if !ok {
		return "", "", false
	}
	name, args, _ = strings.Cut(rest, " ")
	return name, strings.TrimSpace(args), true
}

// parseIgnoreArgs splits a //gclint:ignore payload into the waived
// analyzer names and the mandatory reason. err is non-nil when the
// reason separator or the names are missing.
func parseIgnoreArgs(args string) (names []string, reason string, err error) {
	before, after, found := strings.Cut(args, "--")
	reason = strings.TrimSpace(after)
	if !found || reason == "" {
		return nil, "", fmt.Errorf("//gclint:ignore needs a reason: //gclint:ignore <analyzer> -- <why>")
	}
	names = strings.FieldsFunc(before, func(r rune) bool { return r == ',' || r == ' ' })
	if len(names) == 0 {
		return nil, "", fmt.Errorf("//gclint:ignore needs at least one analyzer name")
	}
	return names, reason, nil
}

// parseLoadsArgs splits a //gclint:loads payload into the cell name and
// the optional instance-carrying parameter name.
func parseLoadsArgs(args string) (cell, param string, err error) {
	fields := strings.Fields(args)
	switch len(fields) {
	case 1:
		return fields[0], "", nil
	case 2:
		return fields[0], fields[1], nil
	default:
		return "", "", fmt.Errorf("//gclint:loads needs a cell name and at most one parameter name")
	}
}

// parseDirectives extracts the //gclint: lines from a comment group.
func parseDirectives(cg *ast.CommentGroup) []directive {
	if cg == nil {
		return nil
	}
	var out []directive
	for _, c := range cg.List {
		name, args, ok := parseDirectiveText(c.Text)
		if !ok {
			continue
		}
		out = append(out, directive{pos: c.Pos(), name: name, args: args})
	}
	return out
}

// CollectAnnotations walks every file of the program and builds the
// fact base. Grammar errors come back as diagnostics under the pseudo
// analyzer "gclint".
func CollectAnnotations(prog *Program) (*Annotations, []Diagnostic) {
	a := &Annotations{
		rank:          map[string]int{},
		Locks:         map[types.Object]*LockInfo{},
		lockNames:     map[string]bool{},
		Acquires:      map[types.Object][]string{},
		Requires:      map[types.Object][]string{},
		NoLocks:       map[types.Object]bool{},
		Cow:           map[types.Object]bool{},
		CowView:       map[types.Object]bool{},
		Mutates:       map[types.Object]bool{},
		Snapshots:     map[types.Object]*SnapshotInfo{},
		snapshotNames: map[string]bool{},
		Loads:         map[types.Object][]LoadFact{},
		Pins:          map[types.Object][]string{},
		Views:         map[types.Object]string{},
		CtxStrict:     map[string]bool{},
		ignores:       map[string]map[int][]string{},
	}
	var diags []Diagnostic
	errf := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{Pos: pos, Analyzer: "gclint", Message: fmt.Sprintf(format, args...)})
	}

	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			a.collectFile(prog, pkg.Path, f, errf)
		}
	}
	a.validate(errf)
	return a, diags
}

// collectFile gathers every directive in one file: declaration-attached
// ones are resolved to their objects; ignore/hierarchy/ctxstrict
// directives can appear in any comment group.
func (a *Annotations) collectFile(prog *Program, pkgPath string, f *ast.File, errf func(token.Pos, string, ...any)) {
	info := prog.Info

	// Attached directives: function declarations and lock declarations
	// (struct fields or package-level vars). consumed records which
	// comment groups were interpreted as declaration docs, so the
	// free-floating pass can flag attachment-required directives that
	// ended up attached to nothing.
	consumed := map[*ast.CommentGroup]bool{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			consumed[d.Doc] = true
			a.applyFuncDirectives(info.Defs[d.Name], parseDirectives(d.Doc), errf)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					doc := s.Doc
					if doc == nil && len(d.Specs) == 1 {
						doc = d.Doc
					}
					consumed[doc] = true
					a.applyTypeDirectives(info.Defs[s.Name], parseDirectives(doc), errf)
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, fld := range st.Fields.List {
							consumed[fld.Doc] = true
							consumed[fld.Comment] = true
							a.applyLockDirectives(info, fld.Names, parseDirectives(fld.Doc), errf)
							a.applyLockDirectives(info, fld.Names, parseDirectives(fld.Comment), errf)
						}
					}
				case *ast.ValueSpec:
					doc := s.Doc
					if doc == nil && len(d.Specs) == 1 {
						doc = d.Doc
					}
					consumed[doc] = true
					a.applyLockDirectives(info, s.Names, parseDirectives(doc), errf)
				}
			}
		}
	}

	// Free-floating directives: hierarchy declarations and ignores.
	for _, cg := range f.Comments {
		for _, dir := range parseDirectives(cg) {
			switch dir.name {
			case "hierarchy":
				names := strings.Fields(dir.args)
				if len(names) == 0 {
					errf(dir.pos, "//gclint:hierarchy needs at least one lock name")
					continue
				}
				if len(a.Hierarchy) > 0 {
					errf(dir.pos, "duplicate //gclint:hierarchy declaration (first: %v)", a.Hierarchy)
					continue
				}
				a.Hierarchy = names
				for i, n := range names {
					a.rank[n] = i
				}
			case "ignore":
				names, reason, err := parseIgnoreArgs(dir.args)
				if err != nil {
					errf(dir.pos, "%s", err)
					continue
				}
				pos := prog.Position(dir.pos)
				byLine := a.ignores[pos.Filename]
				if byLine == nil {
					byLine = map[int][]string{}
					a.ignores[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], names...)
				a.Waivers = append(a.Waivers, Waiver{
					File:      pos.Filename,
					Line:      pos.Line,
					Analyzers: names,
					Reason:    reason,
				})
			case "ctxstrict":
				if dir.args != "" {
					errf(dir.pos, "//gclint:ctxstrict takes no arguments")
					continue
				}
				a.CtxStrict[pkgPath] = true
			case "lock", "leaf", "acquires", "requires", "nolocks", "cow", "cowview", "mutates",
				"snapshot", "loads", "pins", "view":
				// Attached directives are handled in the declaration pass
				// above; one that floats free of any declaration is dead
				// annotation and gets flagged here.
				if !consumed[cg] {
					errf(dir.pos, "//gclint:%s is not attached to a declaration", dir.name)
				}
			default:
				// The typo guard: a misspelled or retired directive is itself
				// an error, so it can never silently disable a check.
				errf(dir.pos, "unknown directive //gclint:%s", dir.name)
			}
		}
	}
}

// applyFuncDirectives records function-level annotations.
func (a *Annotations) applyFuncDirectives(obj types.Object, dirs []directive, errf func(token.Pos, string, ...any)) {
	for _, dir := range dirs {
		switch dir.name {
		case "acquires", "requires":
			names := strings.Fields(dir.args)
			if obj == nil || len(names) == 0 {
				errf(dir.pos, "//gclint:%s needs lock names and a function declaration", dir.name)
				continue
			}
			if dir.name == "acquires" {
				a.Acquires[obj] = append(a.Acquires[obj], names...)
			} else {
				a.Requires[obj] = append(a.Requires[obj], names...)
			}
		case "nolocks", "cowview", "mutates":
			if obj == nil {
				errf(dir.pos, "//gclint:%s must be attached to a function declaration", dir.name)
				continue
			}
			switch dir.name {
			case "nolocks":
				a.NoLocks[obj] = true
			case "cowview":
				a.CowView[obj] = true
			case "mutates":
				a.Mutates[obj] = true
			}
		case "loads":
			cell, param, err := parseLoadsArgs(dir.args)
			if obj == nil || err != nil || cell == "" {
				if err != nil {
					errf(dir.pos, "%s", err)
				} else {
					errf(dir.pos, "//gclint:loads needs a cell name and a function declaration")
				}
				continue
			}
			if param != "" && !hasParam(obj, param) {
				errf(dir.pos, "//gclint:loads parameter %q is not a parameter of %s", param, obj.Name())
				continue
			}
			a.Loads[obj] = append(a.Loads[obj], LoadFact{Cell: cell, Param: param})
		case "pins":
			names := strings.Fields(dir.args)
			if obj == nil || len(names) == 0 {
				errf(dir.pos, "//gclint:pins needs cell names and a function declaration")
				continue
			}
			a.Pins[obj] = append(a.Pins[obj], names...)
		case "lock", "leaf", "cow", "snapshot", "view":
			errf(dir.pos, "//gclint:%s cannot be attached to a function", dir.name)
		default:
			// hierarchy/ignore and unknown directives are handled by the
			// whole-file comments pass.
		}
	}
}

// applyTypeDirectives records type-level annotations (//gclint:cow).
func (a *Annotations) applyTypeDirectives(obj types.Object, dirs []directive, errf func(token.Pos, string, ...any)) {
	for _, dir := range dirs {
		switch dir.name {
		case "cow":
			if obj == nil {
				errf(dir.pos, "//gclint:cow must be attached to a type declaration")
				continue
			}
			a.Cow[obj] = true
		case "view":
			cell := strings.TrimSpace(dir.args)
			if obj == nil || cell == "" {
				errf(dir.pos, "//gclint:view needs a cell name and a type declaration")
				continue
			}
			a.Views[obj] = cell
		case "lock", "leaf", "acquires", "requires", "nolocks", "cowview", "mutates",
			"snapshot", "loads", "pins":
			errf(dir.pos, "//gclint:%s cannot be attached to a type", dir.name)
		default:
			// Handled by the whole-file comments pass.
		}
	}
}

// applyLockDirectives records //gclint:lock (+ optional //gclint:leaf)
// on a struct field or package-level var declaration.
func (a *Annotations) applyLockDirectives(info *types.Info, names []*ast.Ident, dirs []directive, errf func(token.Pos, string, ...any)) {
	var li *LockInfo
	for _, dir := range dirs {
		switch dir.name {
		case "lock":
			name := strings.TrimSpace(dir.args)
			if name == "" || len(names) != 1 {
				errf(dir.pos, "//gclint:lock needs a name and a single-identifier declaration")
				continue
			}
			obj := info.Defs[names[0]]
			if obj == nil {
				errf(dir.pos, "//gclint:lock target did not resolve")
				continue
			}
			li = &LockInfo{Name: name}
			a.Locks[obj] = li
			a.lockNames[name] = true
		case "leaf":
			if li == nil {
				errf(dir.pos, "//gclint:leaf must follow //gclint:lock on the same declaration")
				continue
			}
			li.Leaf = true
		case "snapshot":
			name := strings.TrimSpace(dir.args)
			if name == "" || len(names) != 1 {
				errf(dir.pos, "//gclint:snapshot needs a name and a single-identifier declaration")
				continue
			}
			obj := info.Defs[names[0]]
			if obj == nil {
				errf(dir.pos, "//gclint:snapshot target did not resolve")
				continue
			}
			a.Snapshots[obj] = &SnapshotInfo{Name: name}
			a.snapshotNames[name] = true
		case "acquires", "requires", "nolocks", "cow", "cowview", "mutates",
			"loads", "pins", "view":
			errf(dir.pos, "//gclint:%s cannot be attached to a lock declaration", dir.name)
		default:
			// Handled by the whole-file comments pass.
		}
	}
}

// validate cross-checks the fact base: hierarchy names must be declared
// locks, declared non-leaf locks must be ranked, and acquires/requires
// must reference declared names.
func (a *Annotations) validate(errf func(token.Pos, string, ...any)) {
	for _, n := range a.Hierarchy {
		if !a.lockNames[n] {
			errf(token.NoPos, "hierarchy lock %q has no //gclint:lock declaration", n)
		}
	}
	for obj, li := range a.Locks {
		if _, ranked := a.rank[li.Name]; !ranked && !li.Leaf {
			errf(obj.Pos(), "lock %q is neither in the //gclint:hierarchy nor marked //gclint:leaf", li.Name)
		}
		if _, ranked := a.rank[li.Name]; ranked && li.Leaf {
			errf(obj.Pos(), "lock %q cannot be both leaf and ranked in the hierarchy", li.Name)
		}
	}
	check := func(m map[types.Object][]string, what string) {
		for obj, names := range m {
			for _, n := range names {
				if !a.lockNames[n] {
					errf(obj.Pos(), "//gclint:%s references undeclared lock %q", what, n)
				}
			}
		}
	}
	check(a.Acquires, "acquires")
	check(a.Requires, "requires")

	for obj, facts := range a.Loads {
		for _, f := range facts {
			if !a.snapshotNames[f.Cell] {
				errf(obj.Pos(), "//gclint:loads references undeclared snapshot cell %q", f.Cell)
			}
		}
	}
	for obj, cells := range a.Pins {
		for _, c := range cells {
			if !a.snapshotNames[c] {
				errf(obj.Pos(), "//gclint:pins references undeclared snapshot cell %q", c)
			}
		}
	}
	for obj, cell := range a.Views {
		if !a.snapshotNames[cell] {
			errf(obj.Pos(), "//gclint:view references undeclared snapshot cell %q", cell)
		}
	}
}

// hasParam reports whether obj (a function) declares a parameter named
// param.
func hasParam(obj types.Object, param string) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i).Name() == param {
			return true
		}
	}
	return false
}
