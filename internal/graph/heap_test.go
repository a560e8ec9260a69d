//go:build !race

package graph_test

import (
	"runtime"
	"testing"
)

// TestGraphBytesTracksHeap holds Graph.Bytes to the heap: the harness's
// 5 000 molecules, generated between two reads of HeapAlloc each after two
// GCs, must be charged at least 90 % of the heap they grew. The rest is
// size-class rounding of the blocks and the slice that holds the graphs.
// Excluded under -race, whose instrumentation distorts the accounting.
func TestGraphBytesTracksHeap(t *testing.T) {
	var before, after runtime.MemStats
	read := func(m *runtime.MemStats) {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(m)
	}
	read(&before)
	mols := harnessMolecules()
	read(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	var charged int64
	for _, g := range mols {
		charged += int64(g.Bytes())
	}
	ratio := float64(charged) / float64(grown)
	t.Logf("%d graphs: Bytes %d B, heap growth %d B: %.3f", len(mols), charged, grown, ratio)
	if ratio < 0.9 {
		t.Errorf("Bytes charges %.3f of the heap the graphs hold, want ≥ 0.9", ratio)
	}
	runtime.KeepAlive(mols)
}
