//go:build !race

package graph

import (
	"math/rand"
	"runtime"
	"runtime/debug"
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

// TestPlanPackedBytes: a first plan allocates its packed steps and
// nothing else — 2 bytes a step below 128 vertices, 8 from 128 on —
// read as the heap bytes it adds beyond the copy it is planned on, which
// may round the exact length up only to the allocator's size class.
func TestPlanPackedBytes(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep the scratch pool
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // and on the one P that filled it
	rng := rand.New(rand.NewSource(52))
	for _, n := range []int{40, 100, 127, 128, 129, 300} {
		base := planGraph(rng, n, 3, n%2 == 1, false, func(r *rand.Rand) Label { return Label(r.Intn(5)) })
		base.WithID(0).MatchPlan()
		const copies = 64
		heap := func(plan bool) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < copies; i++ {
				if g := base.WithID(i); plan {
					g.MatchPlan()
				}
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		got := int(heap(true)-heap(false)) / copies
		want := 2 * n
		if n >= 128 {
			want = 8 * n
		}
		t.Logf("%d vertices: %d B a first plan, %d B packed", n, got, want)
		if got < want || got > want+want/8+16 {
			t.Errorf("%d vertices: a first plan allocates %d B, want %d rounded up to a size class", n, got, want)
		}
	}
}
