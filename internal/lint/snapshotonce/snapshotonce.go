// Package snapshotonce enforces the single-snapshot read discipline on
// //gclint:snapshot cells: within an annotated operation scope (a
// function carrying //gclint:pins or //gclint:loads), each cell
// instance may be loaded at most once, never inside a loop unless the
// instance varies with the loop variable, and never at all when the
// function already holds a caller-pinned view parameter
// (//gclint:view). Re-deriving published state mid-operation is exactly
// the torn-snapshot bug class a pinned dataset view exists to prevent:
// two loads of the same atomic.Pointer can observe different epochs, and
// an answer set reconciled against one epoch must never be interpreted
// under another.
//
// Three rules, in order of application per load event:
//
//  1. view: the enclosing function has a parameter whose type is
//     annotated //gclint:view <cell> and the event loads <cell> — the
//     caller already pinned a snapshot; loading fresh forks the world.
//     This rule applies program-wide, annotated scope or not.
//  2. loop: the event sits inside a for/range body (or a function
//     literal, which may run repeatedly — sort comparators are the
//     canonical offender) and its instance expression does not depend
//     on an enclosing loop variable. Loading `sh.summaries` while
//     ranging over shards with loop variable sh is one load per
//     distinct cell and is exempt; reloading a fixed instance each
//     iteration is not.
//  3. twice: two non-loop events with the same (cell, instance) in one
//     scope.
//
// A load event is either a direct `x.cell.Load()` on an annotated
// field/var, or a call to a //gclint:loads-annotated function; the
// instance is the owner expression (x above), the argument bound to
// the fact's named parameter, or the method receiver.
package snapshotonce

import (
	"go/ast"
	"go/token"
	"go/types"

	"graphcache/internal/lint"
)

// Analyzer is the snapshotonce pass.
var Analyzer = &lint.Analyzer{
	Name: "snapshotonce",
	Doc: "forbid loading a //gclint:snapshot cell twice, in a loop, or " +
		"past a caller-pinned //gclint:view parameter within one " +
		"annotated operation scope",
	Run: run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.Prog.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			c := &checker{
				pass:       pass,
				info:       pass.Prog.Info,
				ann:        pass.Ann,
				scoped:     len(pass.Ann.Pins[obj]) > 0 || len(pass.Ann.Loads[obj]) > 0,
				viewParams: viewParams(pass.Ann, obj),
				seen:       map[string]bool{},
				loopVars:   map[types.Object]bool{},
			}
			if !c.scoped && len(c.viewParams) == 0 {
				continue
			}
			c.walk(fd.Body)
		}
	}
	return nil
}

// viewParams maps snapshot cell name -> parameter name for every
// parameter of obj whose (possibly pointer-wrapped) named type carries
// //gclint:view <cell>.
func viewParams(ann *lint.Annotations, obj types.Object) map[string]string {
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out map[string]string
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		t := p.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := types.Unalias(t).(*types.Named)
		if !ok {
			continue
		}
		if cell, ok := ann.Views[named.Obj()]; ok {
			if out == nil {
				out = map[string]string{}
			}
			out[cell] = p.Name()
		}
	}
	return out
}

type checker struct {
	pass *lint.Pass
	info *types.Info
	ann  *lint.Annotations

	// scoped marks a //gclint:pins or //gclint:loads function, whose
	// whole body is one operation scope.
	scoped bool
	// viewParams maps cell name -> view parameter name (rule 1).
	viewParams map[string]string
	// seen records (cell, instance) keys already loaded outside loops.
	seen map[string]bool
	// loopVars holds the variables bound by enclosing for/range
	// statements; loopDepth > 0 means the walk is inside a loop body or
	// a function literal.
	loopVars  map[types.Object]bool
	loopDepth int
}

// walk traverses n in source order, tracking loop context.
func (c *checker) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if n.Init != nil {
				c.walk(n.Init)
			}
			vars := defineVars(c.info, n.Init)
			c.enterLoop(vars, func() {
				if n.Cond != nil {
					c.walk(n.Cond)
				}
				if n.Post != nil {
					c.walk(n.Post)
				}
				c.walk(n.Body)
			})
			return false
		case *ast.RangeStmt:
			c.walk(n.X)
			var vars []types.Object
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					if obj := c.info.Defs[id]; obj != nil {
						vars = append(vars, obj)
					} else if obj := c.info.Uses[id]; obj != nil {
						vars = append(vars, obj)
					}
				}
			}
			c.enterLoop(vars, func() { c.walk(n.Body) })
			return false
		case *ast.FuncLit:
			// A literal's body may run any number of times (callbacks,
			// comparators), so it counts as loop context. Its own
			// parameters deliberately do NOT exempt instances: a sort
			// comparator indexing by its i/j parameters reloads cells
			// mid-sort, which is the bug.
			c.enterLoop(nil, func() { c.walk(n.Body) })
			return false
		case *ast.CallExpr:
			c.checkCall(n)
			return true
		}
		return true
	})
}

// enterLoop runs body one loop level deeper with vars bound.
func (c *checker) enterLoop(vars []types.Object, body func()) {
	for _, v := range vars {
		c.loopVars[v] = true
	}
	c.loopDepth++
	body()
	c.loopDepth--
	for _, v := range vars {
		delete(c.loopVars, v)
	}
}

// defineVars extracts the variables defined by a for-init statement.
func defineVars(info *types.Info, init ast.Stmt) []types.Object {
	as, ok := init.(*ast.AssignStmt)
	if !ok || as.Tok != token.DEFINE {
		return nil
	}
	var out []types.Object
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// checkCall recognizes the two load-event shapes and applies the rules.
func (c *checker) checkCall(call *ast.CallExpr) {
	// Shape 1: direct x.cell.Load() on an annotated field or var.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Load" && len(call.Args) == 0 {
		switch inner := ast.Unparen(sel.X).(type) {
		case *ast.SelectorExpr:
			if si := c.ann.SnapshotCell(c.info.Uses[inner.Sel]); si != nil {
				c.event(si.Name, inner.X, call.Pos())
				return
			}
		case *ast.Ident:
			if si := c.ann.SnapshotCell(c.info.Uses[inner]); si != nil {
				c.event(si.Name, nil, call.Pos())
				return
			}
		}
	}

	// Shape 2: a call to a //gclint:loads-annotated function.
	callee := lint.CalleeObject(c.info, call)
	if callee == nil {
		return
	}
	for _, fact := range c.ann.Loads[callee] {
		c.event(fact.Cell, instanceExpr(call, callee, fact), call.Pos())
	}
}

// instanceExpr resolves the expression that identifies WHICH cell
// instance a //gclint:loads call touches: the argument bound to the
// fact's named parameter, or the method receiver, or nil (a global /
// unattributable instance).
func instanceExpr(call *ast.CallExpr, callee types.Object, fact lint.LoadFact) ast.Expr {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if fact.Param != "" {
		for i := 0; i < sig.Params().Len(); i++ {
			if sig.Params().At(i).Name() == fact.Param && i < len(call.Args) {
				return call.Args[i]
			}
		}
		return nil
	}
	if sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return sel.X
		}
	}
	return nil
}

// event applies the three rules to one load of cell at pos with
// instance inst (nil for package-global cells).
func (c *checker) event(cell string, inst ast.Expr, pos token.Pos) {
	if param, ok := c.viewParams[cell]; ok {
		c.pass.Reportf(pos, "fresh load of snapshot cell %q despite caller-pinned view parameter %q; use the view", cell, param)
		return
	}
	if !c.scoped {
		return
	}
	text := ""
	if inst != nil {
		text = types.ExprString(inst)
	}
	if c.loopDepth > 0 {
		if !c.referencesLoopVar(inst) {
			c.pass.Reportf(pos, "snapshot cell %q (instance %s) loaded inside a loop; pin one view before the loop", cell, instanceLabel(text))
		}
		return
	}
	key := cell + "\x00" + text
	if c.seen[key] {
		c.pass.Reportf(pos, "snapshot cell %q (instance %s) loaded more than once in one operation scope; pin a single view", cell, instanceLabel(text))
		return
	}
	c.seen[key] = true
}

func instanceLabel(text string) string {
	if text == "" {
		return "<global>"
	}
	return text
}

// referencesLoopVar reports whether inst mentions any variable bound by
// an enclosing loop — such instances denote a different cell per
// iteration and are exempt from the loop rule.
func (c *checker) referencesLoopVar(inst ast.Expr) bool {
	if inst == nil {
		return false
	}
	found := false
	ast.Inspect(inst, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.info.Uses[id]; obj != nil && c.loopVars[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}
