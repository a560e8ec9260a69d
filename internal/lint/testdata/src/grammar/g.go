// Package grammar holds deliberately malformed //gclint: annotations;
// the collector must reject every one of them.
package grammar

import "sync"

//gclint:hierarchy alpha beta

type s struct {
	// a is declared and ranked.
	//gclint:lock alpha
	a sync.Mutex
	// g is named but neither ranked nor leaf.
	//gclint:lock gamma
	g sync.Mutex
}

// f carries a typo'd directive.
//
//gclint:bogus
func f() {}

// h references a lock nobody declared.
//
//gclint:acquires delta
func h() {}

// bare carries a reasonless waiver.
func bare() {
	//gclint:ignore lockorder
	_ = 0
}

//gclint:requires alpha

// stray above: the requires floats free of any declaration.
func stray() {}

// cell is a declared snapshot cell the valid directives below refer to.
type cell struct {
	//gclint:snapshot real
	p int
}

// nameless snapshot: the directive needs a cell name.
type nameless struct {
	//gclint:snapshot
	q int
}

// loadsGhost references a cell nobody declared.
//
//gclint:loads ghost
func loadsGhost() {}

// loadsBadParam names a parameter the function does not have.
//
//gclint:loads real missing
func loadsBadParam(c *cell) {}

// pinsGhost pins a cell nobody declared.
//
//gclint:pins phantom
func pinsGhost() {}

// viewGhost claims to view a cell nobody declared.
//
//gclint:view specter
type viewGhost struct{}

//gclint:ctxstrict with args

// argful above: ctxstrict takes no arguments.
func argful() {}

// retiredNoalloc carries a directive whose analyzer is gone: runtime
// alloc budgets pin the contract now.
//
//gclint:noalloc
func retiredNoalloc() {}

// retiredDeterministic carries a directive whose analyzer is gone:
// runtime tests on outputs pin the contract now.
//
//gclint:deterministic
func retiredDeterministic() {}
