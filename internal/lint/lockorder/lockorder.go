// Package lockorder enforces the declared lock hierarchy: locks may
// only be acquired in strictly descending //gclint:hierarchy position,
// //gclint:requires obligations must be satisfied at call sites,
// //gclint:nolocks stages may not acquire anything, and a function's
// //gclint:acquires list must cover every ranked lock it takes.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"graphcache/internal/lint"
)

// Analyzer is the lockorder pass.
var Analyzer = &lint.Analyzer{
	Name: "lockorder",
	Doc: "check every lock acquisition (direct Lock/RLock or via a " +
		"//gclint:acquires call) against the declared hierarchy, enforce " +
		"//gclint:requires at call sites, forbid acquisition inside " +
		"//gclint:nolocks stages, and require a declared //gclint:acquires " +
		"list to cover every ranked lock the function takes",
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
			w := &walker{pass: pass, info: pass.Prog.Info, ann: pass.Ann}
			held := map[string]int{}
			for _, name := range pass.Ann.Requires[obj] {
				held[name]++
			}
			w.nolocks = pass.Ann.NoLocks[obj]
			for _, names := range [][]string{pass.Ann.Acquires[obj], pass.Ann.Holds[obj]} {
				for _, name := range names {
					if w.declared == nil {
						w.declared = map[string]bool{}
					}
					w.declared[name] = true
				}
			}
			w.walkStmt(fd.Body, held, false)
		}
	}
	return nil
}

// walker carries one function's analysis state. The walk is textual
// and source-ordered: no loop-carried or branch-merged lock state, which
// matches how the kernel writes its critical sections (acquire, work,
// release in straight lines; deferred unlocks hold to function end).
type walker struct {
	pass    *lint.Pass
	info    *types.Info
	ann     *lint.Annotations
	nolocks bool
	// declared is the function's own //gclint:acquires + //gclint:holds
	// list, nil when it carries neither. A declared list is a promise to
	// callers, so it must cover every ranked lock the body takes —
	// directly or through an annotated callee.
	declared map[string]bool
}

// walkStmt threads the held-set through one statement. inLit suppresses
// //gclint:requires checks: function literals are invoked in their
// callee's lock context, not their definition site's.
func (w *walker) walkStmt(s ast.Stmt, held map[string]int, inLit bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			w.walkStmt(st, held, inLit)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held, inLit)
		}
		w.walkExpr(s.Cond, held, inLit)
		// A branch that cannot fall through (early unlock-and-return)
		// must not leak its lock-state changes into the code after the
		// if; walk it on a copy.
		if terminates(s.Body) {
			w.walkStmt(s.Body, clone(held), inLit)
		} else {
			w.walkStmt(s.Body, held, inLit)
		}
		if s.Else != nil {
			w.walkStmt(s.Else, held, inLit)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held, inLit)
		}
		if s.Cond != nil {
			w.walkExpr(s.Cond, held, inLit)
		}
		if s.Post != nil {
			w.walkStmt(s.Post, held, inLit)
		}
		w.walkStmt(s.Body, held, inLit)
	case *ast.RangeStmt:
		w.walkExpr(s.X, held, inLit)
		w.walkStmt(s.Body, held, inLit)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held, inLit)
		}
		if s.Tag != nil {
			w.walkExpr(s.Tag, held, inLit)
		}
		w.walkClauses(s.Body, held, inLit)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held, inLit)
		}
		w.walkClauses(s.Body, held, inLit)
	case *ast.SelectStmt:
		w.walkClauses(s.Body, held, inLit)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, held, inLit)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held until function end from
		// the walk's perspective: skip the release, still walk the
		// receiver chain and arguments (evaluated at defer time). The
		// same goes for a deferred call to a pure //gclint:releases
		// function (defer c.unlockAll()).
		if ev, ok := lint.ClassifyLockCall(w.info, w.ann, s.Call); ok && ev.Op == lint.ReleaseOp {
			w.walkCallParts(s.Call, held, inLit)
			return
		}
		if callee := lint.CalleeObject(w.info, s.Call); callee != nil &&
			len(w.ann.Releases[callee]) > 0 && len(w.ann.Acquires[callee]) == 0 && len(w.ann.Holds[callee]) == 0 {
			w.walkCallParts(s.Call, held, inLit)
			return
		}
		w.handleCall(s.Call, held, inLit)
	case *ast.GoStmt:
		// A spawned goroutine does not inherit the spawner's held locks.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok && len(s.Call.Args) == 0 {
			w.walkStmt(lit.Body, map[string]int{}, true)
			return
		}
		w.handleCallWith(s.Call, held, map[string]int{}, inLit)
	case nil:
	default:
		// Simple statements (assign, return, expr, send, decl, incdec):
		// no nested statements outside function literals, which walkExpr
		// intercepts.
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				w.handleCall(n, held, inLit)
				return false
			case *ast.FuncLit:
				w.walkStmt(n.Body, map[string]int{}, true)
				return false
			}
			return true
		})
	}
}

// walkClauses walks each case/comm clause on a copy of the held-set:
// clauses are alternatives, and none of the kernel's switches leak lock
// state past the switch.
func (w *walker) walkClauses(body *ast.BlockStmt, held map[string]int, inLit bool) {
	for _, cl := range body.List {
		h := clone(held)
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				w.walkExpr(e, h, inLit)
			}
			for _, st := range cl.Body {
				w.walkStmt(st, h, inLit)
			}
		case *ast.CommClause:
			if cl.Comm != nil {
				w.walkStmt(cl.Comm, h, inLit)
			}
			for _, st := range cl.Body {
				w.walkStmt(st, h, inLit)
			}
		}
	}
}

func (w *walker) walkExpr(e ast.Expr, held map[string]int, inLit bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			w.handleCall(n, held, inLit)
			return false
		case *ast.FuncLit:
			w.walkStmt(n.Body, map[string]int{}, true)
			return false
		}
		return true
	})
}

// walkCallParts visits a call's receiver chain and arguments without
// interpreting the call itself.
func (w *walker) walkCallParts(call *ast.CallExpr, held map[string]int, inLit bool) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.walkExpr(sel.X, held, inLit)
	} else if _, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok {
		w.walkExpr(call.Fun, held, inLit)
	}
	for _, arg := range call.Args {
		w.walkExpr(arg, held, inLit)
	}
}

func (w *walker) handleCall(call *ast.CallExpr, held map[string]int, inLit bool) {
	w.handleCallWith(call, held, held, inLit)
}

// handleCallWith interprets one call. calleeHeld is the held-set the
// callee runs under — identical to held except for `go` calls, whose
// callee starts with nothing held.
func (w *walker) handleCallWith(call *ast.CallExpr, held, calleeHeld map[string]int, inLit bool) {
	w.walkCallParts(call, held, inLit)

	if ev, ok := lint.ClassifyLockCall(w.info, w.ann, call); ok {
		switch ev.Op {
		case lint.AcquireOp:
			if w.nolocks {
				w.pass.Reportf(call.Pos(), "lock acquisition in //gclint:nolocks function")
			}
			if ev.Lock == nil {
				return
			}
			w.checkAcquire(call.Pos(), ev.Lock.Name, ev.Lock.Leaf, held, "acquiring")
			held[ev.Lock.Name]++
		case lint.ReleaseOp:
			if ev.Lock != nil && held[ev.Lock.Name] > 0 {
				held[ev.Lock.Name]--
			}
		}
		return
	}

	callee := lint.CalleeObject(w.info, call)
	if callee == nil {
		return
	}
	for _, name := range w.ann.Acquires[callee] {
		if w.nolocks {
			w.pass.Reportf(call.Pos(), "call to %s acquires %s inside //gclint:nolocks function", callee.Name(), name)
			continue
		}
		leaf := false
		if li := w.ann.LockByName(name); li != nil {
			leaf = li.Leaf
		}
		w.checkAcquire(call.Pos(), name, leaf, calleeHeld, "call to "+callee.Name()+" acquires")
	}
	// A //gclint:holds callee checks like an acquisition but leaves the
	// lock in the caller's held-set; //gclint:releases removes it.
	for _, name := range w.ann.Holds[callee] {
		if w.nolocks {
			w.pass.Reportf(call.Pos(), "call to %s acquires %s inside //gclint:nolocks function", callee.Name(), name)
			continue
		}
		leaf := false
		if li := w.ann.LockByName(name); li != nil {
			leaf = li.Leaf
		}
		w.checkAcquire(call.Pos(), name, leaf, calleeHeld, "call to "+callee.Name()+" acquires")
		calleeHeld[name]++
	}
	for _, name := range w.ann.Releases[callee] {
		if calleeHeld[name] > 0 {
			calleeHeld[name]--
		}
	}
	if !inLit {
		for _, name := range w.ann.Requires[callee] {
			if calleeHeld[name] == 0 {
				w.pass.Reportf(call.Pos(), "call to %s requires %s, which is not held here", callee.Name(), name)
			}
		}
	}
}

// checkAcquire reports hierarchy violations: a ranked lock may only be
// taken while every held ranked lock sits strictly outward (lower
// hierarchy index) of it. Leaf locks are acquirable under anything;
// what happens UNDER them is the leaflock analyzer's concern.
func (w *walker) checkAcquire(pos token.Pos, name string, leaf bool, held map[string]int, how string) {
	if leaf {
		return
	}
	rank, ranked := w.ann.HierarchyRank(name)
	if !ranked {
		return
	}
	if w.declared != nil && !w.declared[name] {
		w.pass.Reportf(pos, "%s %s, which the function's //gclint:acquires list omits", how, name)
	}
	for heldName, n := range held {
		if n == 0 {
			continue
		}
		heldRank, ok := w.ann.HierarchyRank(heldName)
		if !ok {
			continue
		}
		if heldRank >= rank {
			w.pass.Reportf(pos, "%s %s while %s is held: hierarchy is %s",
				how, name, heldName, strings.Join(w.ann.Hierarchy, " -> "))
		}
	}
}

func clone(held map[string]int) map[string]int {
	out := make(map[string]int, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// terminates reports whether a block's last statement prevents falling
// through (return, branch, or a panic call).
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
