//go:build !race

package graph

import (
	"strings"
	"testing"
)

// Allocation budget of the text parser. Excluded under -race, whose
// instrumentation distorts the accounting.

// allocBudgetReadAll covers ReadAll of one 12-vertex, 12-edge pattern,
// the size the daemon parses on every request: the reader, the input
// buffer and its bytes, the builder's two scratch slices, Build's two (the
// Graph and its block) and the result slice. Measured 8; the bufio.Scanner
// parser took 72 and 68.8 KB.
const allocBudgetReadAll = 9

func TestReadAllAllocBudget(t *testing.T) {
	text := patternText(12)
	got := testing.AllocsPerRun(200, func() {
		gs, err := ReadAll(strings.NewReader(text))
		if err != nil || len(gs) != 1 || gs[0].N() != 12 || gs[0].M() != 12 {
			t.Fatalf("ReadAll = %v, %v", gs, err)
		}
	})
	t.Logf("ReadAll of a 12-vertex pattern: %.1f allocs/op (budget %d)", got, allocBudgetReadAll)
	if got > allocBudgetReadAll {
		t.Errorf("ReadAll allocates %.1f/op, budget %d — a per-line string or a per-call line buffer crept back in", got, allocBudgetReadAll)
	}
}
