package lockorder_test

import (
	"testing"

	"graphcache/internal/lint"
	"graphcache/internal/lint/linttest"
	"graphcache/internal/lint/lockorder"
)

func TestLockOrder(t *testing.T) {
	linttest.Run(t, ".", []*lint.Analyzer{lockorder.Analyzer}, "a")
}

// TestLeafLock runs the leaf rule's cases: package b declares its own
// hierarchy, so it loads on its own.
func TestLeafLock(t *testing.T) {
	linttest.Run(t, ".", []*lint.Analyzer{lockorder.Analyzer}, "b")
}
