package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
)

// Native fuzz target for the persistence v2 parser. ReadState consumes
// untrusted bytes (a state file is just a file on disk), so the parser
// must never panic, never partially apply a bad restore, and every state
// it accepts must satisfy the cache invariants and survive a
// write→read roundtrip. The committed seed corpus under
// testdata/fuzz/FuzzReadState pins a valid v2 state plus the corruption
// shapes the hand-written persist tests cover; `make ci` runs a short
// -fuzz smoke pass on top of the regular regression replay.

// fuzzStateMu serializes fuzz executions against the shared fixture
// below (the fuzzing engine may run the seed corpus on parallel
// goroutines; caches are per-execution but the method is shared and
// WriteState/ReadState both walk it).
var fuzzStateMu sync.Mutex

var fuzzStateFixture = sync.OnceValue(func() *ftv.Method {
	return ftv.NewGGSXMethod(testDataset(161, 8), 3)
})

// fuzzStateCache builds a fresh small cache over the shared method.
func fuzzStateCache() *Cache {
	cfg := DefaultConfig()
	cfg.Capacity = 6
	cfg.Window = 1
	return MustNew(fuzzStateFixture(), cfg)
}

// validFuzzState serializes a warmed cache — the well-formed corpus seed.
func validFuzzState(tb testing.TB) []byte {
	c := fuzzStateCache()
	rng := rand.New(rand.NewSource(162))
	v := c.Method().View()
	for i := 0; i < 3; i++ {
		q := gen.ExtractConnectedSubgraph(rng, v.Graph(i), 4)
		if _, err := c.Execute(q, ftv.Subgraph); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.WriteStateV2(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzReadState(f *testing.F) {
	valid := validFuzzState(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                              // truncated mid-entry
	f.Add(bytes.Replace(valid, []byte("gcstate 2"), []byte("gcstate 1"), 1)) // version skew
	digest := fuzzStateFixture().View().Digest()
	f.Add(fmt.Appendf(nil, "gcstate 2 8 %016x 0\nend\n", digest))    // empty but well-formed
	f.Add(fmt.Appendf(nil, "gcstate 2 9999 %016x 1\nend\n", digest)) // foreign dataset size
	f.Add(fmt.Appendf(nil, "gcstate 2 8 %016x 0\nend\n", ^digest))   // foreign dataset digest
	f.Add([]byte("gcstate 2 8 0\nend\n"))                            // a header without a digest
	f.Add([]byte("entry 0 1 0 0 0 0 0\n"))                           // entry before header
	f.Add([]byte(strings.Repeat("answers 1 1\n", 4)))                // orphan answers lines

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzStateMu.Lock()
		defer fuzzStateMu.Unlock()
		c := fuzzStateCache()
		if err := c.ReadState(bytes.NewReader(data)); err != nil {
			// Rejections must be all-or-nothing: the cache stays empty.
			if c.Len() != 0 || c.Bytes() != 0 {
				t.Fatalf("rejected restore left %d entries / %d bytes behind", c.Len(), c.Bytes())
			}
			return
		}
		// Accepted states must satisfy the cache invariants...
		if c.Len() > 6 {
			t.Fatalf("restore admitted %d entries past capacity 6", c.Len())
		}
		view := c.Method().View()
		for _, e := range c.Entries() {
			ans := e.Answers()
			if ans.Len() != view.Size() {
				t.Fatalf("entry %d answers sized %d, dataset %d", e.ID, ans.Len(), view.Size())
			}
			if !subset(ans, view.Live()) {
				t.Fatalf("entry %d answers a tombstoned id", e.ID)
			}
		}
		// ...and survive a write→read roundtrip bit-exactly in count.
		var buf bytes.Buffer
		if err := c.WriteState(&buf); err != nil {
			t.Fatalf("re-serializing an accepted state: %v", err)
		}
		c2 := fuzzStateCache()
		if err := c2.ReadState(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("roundtrip of an accepted state was rejected: %v", err)
		}
		if c2.Len() != c.Len() {
			t.Fatalf("roundtrip entry count %d, want %d", c2.Len(), c.Len())
		}
	})
}
