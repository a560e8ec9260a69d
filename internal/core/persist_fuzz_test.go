package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
)

// Native fuzz target for the snapshot reader. ReadState consumes
// untrusted bytes (a snapshot is just a file on disk), so the parser must
// never panic, must reject corruption all-or-nothing, and every snapshot
// it accepts must restore entries that answer exactly what Method.Run
// answers on the restore's view — no stored byte can make an answer
// wrong — and survive a write→read roundtrip. The committed seed corpus
// under testdata/fuzz/FuzzReadSnapshot pins a valid snapshot, one written
// over another dataset, the truncation/flip shapes TestStateCorruptionSweep
// covers and the refused older versions; `make ci` runs a short -fuzz
// smoke pass on top of the regular regression replay.

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

// warmFuzzState serializes a cache over method warmed by three patterns
// of its first graphs — the well-formed corpus seeds.
func warmFuzzState(tb testing.TB, method *ftv.Method) []byte {
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
	if err := c.WriteState(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// foreignFuzzMethod is a dataset the fixture's snapshots were not written on.
func foreignFuzzMethod() *ftv.Method { return ftv.NewGGSXMethod(testDataset(163, 5), 3) }

// checkFuzzRestore is the fuzz target's body: a refused input leaves the
// cache empty; an accepted one restores at most Capacity entries, each
// answering what Method.Run answers, and round-trips through WriteState.
func checkFuzzRestore(t *testing.T, data []byte) {
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
	if err := c.WriteState(&buf); err != nil {
		t.Fatalf("re-serializing an accepted snapshot: %v", err)
	}
	c2 := fuzzStateCache(fuzzStateFixture())
	if err := c2.ReadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("roundtrip of an accepted snapshot was rejected: %v", err)
	}
	if c2.Len() != c.Len() {
		t.Fatalf("roundtrip entry count %d, want %d", c2.Len(), c.Len())
	}
}

func FuzzReadSnapshot(f *testing.F) {
	valid := warmFuzzState(f, fuzzStateFixture())
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-body
	f.Add(valid[:headerLen])    // header only
	flipped := append([]byte(nil), valid...)
	flipped[headerLen+8] ^= 0x01 // one index bit
	f.Add(flipped)
	badVersion := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(badVersion[4:], 99)
	f.Add(badVersion)
	f.Add(withVersion(valid, 5))                 // checksummed, so the version check refuses it
	f.Add(warmFuzzState(f, foreignFuzzMethod())) // written over another dataset
	f.Add([]byte("GCS3"))                        // bare magic
	f.Add([]byte("GCS4junkjunkjunkjunkjunk"))    // wrong magic
	f.Add([]byte("gcstate 3 0\nend\n"))          // a text state of the retired format: bad magic

	f.Fuzz(checkFuzzRestore)
}
