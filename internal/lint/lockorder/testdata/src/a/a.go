// Package a exercises the lockorder analyzer: hierarchy violations,
// acquires/requires call-site checks, nolocks stages, early-release
// branches, goroutine isolation, and waivers.
package a

import "sync"

//gclint:hierarchy outer middle inner

type server struct {
	// outerMu guards configuration.
	//gclint:lock outer
	outerMu sync.Mutex
	// midMu guards the working set.
	//gclint:lock middle
	midMu sync.RWMutex
	// innerMu guards per-entry state.
	//gclint:lock inner
	innerMu sync.Mutex
}

// good acquires in descending order; skipping levels is allowed.
func (s *server) good() {
	s.outerMu.Lock()
	defer s.outerMu.Unlock()
	s.innerMu.Lock()
	s.innerMu.Unlock()
}

// goodRead takes the middle lock in read mode under outer.
func (s *server) goodRead() {
	s.outerMu.Lock()
	defer s.outerMu.Unlock()
	s.midMu.RLock()
	defer s.midMu.RUnlock()
}

// bad nests in reverse.
func (s *server) bad() {
	s.innerMu.Lock()
	defer s.innerMu.Unlock()
	s.outerMu.Lock() // want "acquiring outer while inner is held"
	s.outerMu.Unlock()
}

// reentrant re-acquires a held non-reentrant lock.
func (s *server) reentrant() {
	s.midMu.Lock()
	s.midMu.Lock() // want "acquiring middle while middle is held"
	s.midMu.Unlock()
	s.midMu.Unlock()
}

// touchMiddle briefly takes the middle lock.
//
//gclint:acquires middle
func (s *server) touchMiddle() {
	s.midMu.Lock()
	defer s.midMu.Unlock()
}

// needsOuter must run under the outer lock.
//
//gclint:requires outer
func (s *server) needsOuter() {}

// viaHelpers is the conforming use of both helpers.
func (s *server) viaHelpers() {
	s.outerMu.Lock()
	defer s.outerMu.Unlock()
	s.touchMiddle()
	s.needsOuter()
}

// helperViolations trips both call-site checks.
func (s *server) helperViolations() {
	s.midMu.Lock()
	defer s.midMu.Unlock()
	s.touchMiddle() // want "call to touchMiddle acquires middle while middle is held"
	s.needsOuter()  // want "call to needsOuter requires outer, which is not held here"
}

// stage is a no-lock stage: nothing may be acquired, directly or via
// helpers.
//
//gclint:nolocks
func (s *server) stage() {
	s.innerMu.Lock() // want "lock acquisition in //gclint:nolocks function"
	s.innerMu.Unlock()
	s.touchMiddle() // want "call to touchMiddle acquires middle inside //gclint:nolocks function"
}

// lockPair acquires the middle lock and leaves it held for the caller.
//
//gclint:holds middle
func (s *server) lockPair() {
	s.midMu.Lock()
}

// unlockPair releases the middle lock lockPair left held.
//
//gclint:releases middle
func (s *server) unlockPair() {
	s.midMu.Unlock()
}

// viaPair holds middle across the pair; inner nests correctly under it,
// and after the release outer is acquirable again.
func (s *server) viaPair() {
	s.lockPair()
	s.innerMu.Lock()
	s.innerMu.Unlock()
	s.unlockPair()
	s.outerMu.Lock()
	s.outerMu.Unlock()
}

// deferPair releases via defer: middle stays held to function end.
func (s *server) deferPair() {
	s.lockPair()
	defer s.unlockPair()
	s.needsMiddle()
}

// needsMiddle must run under the middle lock.
//
//gclint:requires middle
func (s *server) needsMiddle() {}

// badPair calls the holds helper in reverse hierarchy order, and the
// held lock persists past the call: outer is still blocked after it.
func (s *server) badPair() {
	s.innerMu.Lock()
	s.lockPair()     // want "call to lockPair acquires middle while inner is held"
	s.outerMu.Lock() // want "acquiring outer while middle is held" "acquiring outer while inner is held"
	s.outerMu.Unlock()
	s.unlockPair()
	s.innerMu.Unlock()
}

// earlyOut releases and returns inside a branch; the fall-through path
// still holds the lock, so the requires call is fine.
func (s *server) earlyOut(c bool) {
	s.outerMu.Lock()
	if c {
		s.outerMu.Unlock()
		return
	}
	s.needsOuter()
	s.outerMu.Unlock()
}

// spawn starts a goroutine, which holds none of the spawner's locks.
func (s *server) spawn() {
	s.innerMu.Lock()
	defer s.innerMu.Unlock()
	go func() {
		s.outerMu.Lock()
		s.outerMu.Unlock()
	}()
}

// waived shows a written-reason waiver suppressing a real finding.
func (s *server) waived() {
	s.innerMu.Lock()
	defer s.innerMu.Unlock()
	//gclint:ignore lockorder -- harness check: waivers must suppress the line below
	s.outerMu.Lock()
	s.outerMu.Unlock()
}

// underDeclared promises callers only the middle lock but also takes
// inner — directly and again through an annotated helper.
//
//gclint:acquires middle
func (s *server) underDeclared() {
	s.midMu.Lock()
	s.midMu.Unlock()
	s.innerMu.Lock() // want "acquiring inner, which the function's //gclint:acquires list omits"
	s.innerMu.Unlock()
	s.touchInner() // want "call to touchInner acquires inner, which the function's //gclint:acquires list omits"
}

// touchInner briefly takes the inner lock.
//
//gclint:acquires inner
func (s *server) touchInner() {
	s.innerMu.Lock()
	s.innerMu.Unlock()
}
