package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockOp distinguishes acquisitions from releases.
type LockOp int

const (
	AcquireOp LockOp = iota
	ReleaseOp
)

// LockEvent is one mutex operation found in source.
type LockEvent struct {
	Pos token.Pos
	// Lock is the annotated lock operated on, nil when the mutex carries
	// no //gclint:lock annotation (still relevant inside nolocks/leaf
	// contexts).
	Lock *LockInfo
	Op   LockOp
	// Read marks RLock/RUnlock.
	Read bool
}

var lockMethods = map[string]struct {
	op   LockOp
	read bool
}{
	"Lock":    {AcquireOp, false},
	"RLock":   {AcquireOp, true},
	"Unlock":  {ReleaseOp, false},
	"RUnlock": {ReleaseOp, true},
}

// ClassifyLockCall reports whether call is a mutex operation — a
// Lock/RLock/Unlock/RUnlock method call on an annotated lock
// declaration or on a sync.Mutex/sync.RWMutex value.
func ClassifyLockCall(info *types.Info, ann *Annotations, call *ast.CallExpr) (LockEvent, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return LockEvent{}, false
	}
	m, ok := lockMethods[sel.Sel.Name]
	if !ok {
		return LockEvent{}, false
	}
	base := lockTargetObject(info, sel.X)
	if base != nil {
		if li, ok := ann.Locks[base]; ok {
			return LockEvent{Pos: call.Pos(), Lock: li, Op: m.op, Read: m.read}, true
		}
	}
	if isSyncMutexType(info.TypeOf(sel.X)) {
		return LockEvent{Pos: call.Pos(), Op: m.op, Read: m.read}, true
	}
	return LockEvent{}, false
}

// lockTargetObject resolves the declaration object of a lock expression
// like c.mu, sh.mu, c.shards[i].mu or a package-level var.
func lockTargetObject(info *types.Info, expr ast.Expr) types.Object {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			return sel.Obj()
		}
		return info.Uses[e.Sel]
	case *ast.StarExpr:
		return lockTargetObject(info, e.X)
	case *ast.IndexExpr:
		return lockTargetObject(info, e.X)
	}
	return nil
}

// isSyncMutexType reports whether t (or *t) is sync.Mutex or
// sync.RWMutex.
func isSyncMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// CalleeObject resolves call's callee to its declaration object
// (function or method), or nil for indirect calls and builtins.
func CalleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj := info.Uses[f]; obj != nil {
			if _, isFunc := obj.(*types.Func); isFunc {
				return obj
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			return sel.Obj()
		}
		if obj := info.Uses[f.Sel]; obj != nil {
			if _, isFunc := obj.(*types.Func); isFunc {
				return obj
			}
		}
	}
	return nil
}
