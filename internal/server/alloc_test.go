//go:build !race

package server

import (
	"net/http"
	"testing"
)

// Allocation budget of the daemon's main request. Excluded under -race,
// whose instrumentation distorts the accounting (sync.Pool drops items at
// random there).

// allocBudgetExactHitRequest covers one POST /api/query that exact-hits,
// through ServeHTTP with the transport left out (see replay). Measured 27:
// 6 in json.Unmarshal (its state, the two strings, the request struct), 2
// around the body (MaxBytesReader, strings.Reader), 7 in graph.ReadAll
// (Build makes the Graph and its one block), 4 for the fresh graph's
// fingerprint, 2 for its label-degree summary, 1 Result, 3 for the two
// reply headers, and none per answer id. The encoding/json handler took
// 107 and 72 KB.
const allocBudgetExactHitRequest = 30

func TestExactHitRequestAllocBudget(t *testing.T) {
	r, exact, _ := newReplay(t, 0)
	var size int
	got := testing.AllocsPerRun(200, func() {
		var status int
		if status, size = r.post(exact); status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
	})
	t.Logf("exact-hit POST /api/query: %.1f allocs/op (budget %d), %d-byte reply", got, allocBudgetExactHitRequest, size)
	if got > allocBudgetExactHitRequest {
		t.Errorf("an exact-hit request allocates %.1f/op, budget %d — an id slice, a second encode buffer or a per-call scanner crept back in", got, allocBudgetExactHitRequest)
	}
}
