package core

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
)

// Native fuzz target for the text-format state parser. ReadState
// consumes untrusted bytes (a state file is just a file on disk), so the
// parser must never panic, never partially apply a bad restore, and every
// state it accepts must restore entries that answer exactly what
// Method.Run answers on the restore's view — no stored byte can make an
// answer wrong — and survive a write→read roundtrip. The committed seed
// corpus under testdata/fuzz/FuzzReadState pins a valid state, one
// written over another dataset, the corruption shapes the hand-written
// persist tests cover and the refused older versions; `make ci` runs a
// short -fuzz smoke pass on top of the regular regression replay.

// fuzzStateMu serializes fuzz executions against the shared fixture
// below (the fuzzing engine may run the seed corpus on parallel
// goroutines; caches are per-execution but the method is shared and
// WriteState/ReadState both walk it).
var fuzzStateMu sync.Mutex

var fuzzStateFixture = sync.OnceValue(func() *ftv.Method {
	return ftv.NewGGSXMethod(testDataset(161, 8), 3)
})

// fuzzStateCache builds a fresh small cache over method.
func fuzzStateCache(method *ftv.Method) *Cache {
	cfg := DefaultConfig()
	cfg.Capacity = 6
	cfg.Window = 1
	return MustNew(method, cfg)
}

// warmFuzzState serializes, with write, a cache over method warmed by
// three patterns of its first graphs — the well-formed corpus seeds.
func warmFuzzState(tb testing.TB, method *ftv.Method, write func(*Cache, io.Writer) error) []byte {
	c := fuzzStateCache(method)
	rng := rand.New(rand.NewSource(162))
	v := c.Method().View()
	for i := 0; i < 3; i++ {
		q := gen.ExtractConnectedSubgraph(rng, v.Graph(i), 4)
		if _, err := c.Execute(q, ftv.Subgraph); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := write(c, &buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// foreignFuzzMethod is a dataset the fixture's states were not written on.
func foreignFuzzMethod() *ftv.Method { return ftv.NewGGSXMethod(testDataset(163, 5), 3) }

// checkFuzzRestore is both fuzz targets' body: a refused input leaves the
// cache empty; an accepted one restores at most Capacity entries, each
// answering what Method.Run answers, and round-trips through write.
func checkFuzzRestore(t *testing.T, data []byte, write func(*Cache, io.Writer) error) {
	fuzzStateMu.Lock()
	defer fuzzStateMu.Unlock()
	c := fuzzStateCache(fuzzStateFixture())
	if err := c.ReadState(bytes.NewReader(data)); err != nil {
		// Rejections must be all-or-nothing: the cache stays empty.
		if c.Len() != 0 || c.Bytes() != 0 {
			t.Fatalf("rejected restore left %d entries / %d bytes behind", c.Len(), c.Bytes())
		}
		return
	}
	if c.Len() > 6 {
		t.Fatalf("restore admitted %d entries past capacity 6", c.Len())
	}
	view := c.Method().View()
	for _, e := range c.Entries() {
		if want := view.Run(e.Graph, e.Type).Answers; !e.Answers().Equal(want) {
			t.Fatalf("entry %d answers %v, Method.Run %v", e.ID, e.Answers(), want)
		}
	}
	var buf bytes.Buffer
	if err := write(c, &buf); err != nil {
		t.Fatalf("re-serializing an accepted state: %v", err)
	}
	c2 := fuzzStateCache(fuzzStateFixture())
	if err := c2.ReadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("roundtrip of an accepted state was rejected: %v", err)
	}
	if c2.Len() != c.Len() {
		t.Fatalf("roundtrip entry count %d, want %d", c2.Len(), c.Len())
	}
}

func FuzzReadState(f *testing.F) {
	valid := warmFuzzState(f, fuzzStateFixture(), (*Cache).WriteStateV2)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                              // truncated mid-entry
	f.Add(bytes.Replace(valid, []byte("gcstate 3"), []byte("gcstate 2"), 1)) // version skew
	f.Add([]byte("gcstate 3 0\nend\n"))                                      // empty but well-formed
	f.Add(warmFuzzState(f, foreignFuzzMethod(), (*Cache).WriteStateV2))      // written over another dataset
	f.Add([]byte("gcstate 3 1\nend\n"))                                      // an entry short
	f.Add([]byte("gcstate 2 8 97df7316297bc050 0\nend\n"))                   // version 2: size and digest
	f.Add([]byte("entry 0 1 0 0 0 0 0\n"))                                   // entry before header
	f.Add([]byte(strings.Repeat("answers 1 1\n", 4)))                        // orphan version-2 answers lines

	f.Fuzz(func(t *testing.T, data []byte) { checkFuzzRestore(t, data, (*Cache).WriteStateV2) })
}
