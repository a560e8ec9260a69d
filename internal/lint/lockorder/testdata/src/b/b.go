// Package b exercises lockorder's leaf rule: a leaf lock's critical
// section must be terminal — no direct acquisitions and no calls into
// lock-acquiring or lock-requiring helpers while it is held.
package b

import "sync"

//gclint:hierarchy big

type thing struct {
	// bigMu is the ranked lock.
	//gclint:lock big
	bigMu sync.Mutex
	// mu is the leaf: acquirable under anything, terminal once held.
	//gclint:lock tiny
	//gclint:leaf
	mu sync.Mutex
	// plain carries no annotation; acquiring it under the leaf still counts.
	plain sync.Mutex
}

// lockBig briefly takes the ranked lock.
//
//gclint:acquires big
func (t *thing) lockBig() {
	t.bigMu.Lock()
	t.bigMu.Unlock()
}

// good takes the leaf under the ranked lock and keeps the leaf section
// terminal.
func (t *thing) good() {
	t.bigMu.Lock()
	defer t.bigMu.Unlock()
	t.mu.Lock()
	t.mu.Unlock()
}

// badDirect acquires a ranked lock inside the leaf section.
func (t *thing) badDirect() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.bigMu.Lock() // want "lock acquisition while leaf lock tiny is held"
	t.bigMu.Unlock()
}

// badCall reaches a lock acquisition through a helper.
func (t *thing) badCall() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lockBig() // want "call to lockBig acquires big while leaf lock tiny is held"
}

// underLeaf inherits the held leaf from its contract.
//
//gclint:requires tiny
func (t *thing) underLeaf() {
	t.lockBig() // want "call to lockBig acquires big while leaf lock tiny is held"
}

// needsBig must run under the ranked lock.
//
//gclint:requires big
func (t *thing) needsBig() {}

// badRequires calls a helper that requires another lock from inside the
// leaf section.
func (t *thing) badRequires() {
	t.bigMu.Lock()
	defer t.bigMu.Unlock()
	t.mu.Lock()
	t.needsBig() // want "call to needsBig \\(requires big\\) while leaf lock tiny is held"
	t.mu.Unlock()
}

// badPlain takes an unannotated mutex inside the leaf section.
func (t *thing) badPlain() {
	t.mu.Lock()
	t.plain.Lock() // want "lock acquisition while leaf lock tiny is held"
	t.plain.Unlock()
	t.mu.Unlock()
}

// sequenced releases the leaf before touching the ranked lock.
func (t *thing) sequenced() {
	t.mu.Lock()
	t.mu.Unlock()
	t.lockBig()
}

// waived demonstrates a reasoned waiver.
func (t *thing) waived() {
	t.mu.Lock()
	defer t.mu.Unlock()
	//gclint:ignore lockorder -- harness check: waivers must suppress the line below
	t.bigMu.Lock()
	t.bigMu.Unlock()
}
