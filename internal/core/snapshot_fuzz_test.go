package core

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// Native fuzz target for the binary GCS3 snapshot reader. Like the v2
// text file, a snapshot is untrusted bytes on disk: the parser must never
// panic, must reject corruption all-or-nothing, and anything it accepts
// must satisfy the cache invariants and round-trip. The committed seed
// corpus under testdata/fuzz/FuzzReadSnapshot pins a valid snapshot plus
// the truncation/flip shapes TestV3CorruptionSweep covers; `make ci` runs
// a short -fuzz smoke pass on top of the regression replay.

// validFuzzSnapshot serializes the shared warmed fixture in the binary
// format — the well-formed corpus seed.
func validFuzzSnapshot(tb testing.TB) []byte {
	raw := validFuzzState(tb) // v2 text of the warmed fixture
	c := fuzzStateCache()
	if err := c.ReadState(bytes.NewReader(raw)); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteState(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzReadSnapshot(f *testing.F) {
	valid := validFuzzSnapshot(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-body
	f.Add(valid[:v3HeaderLen])  // header only
	flipped := append([]byte(nil), valid...)
	flipped[v3HeaderLen+8] ^= 0x01 // one index bit
	f.Add(flipped)
	badVersion := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(badVersion[4:], 99)
	f.Add(badVersion)
	f.Add(asVersion4(valid)) // checksummed, so the version check refuses it
	foreign := append([]byte(nil), valid...)
	foreign[16] ^= 0x01 // another dataset's digest, checksum fixed
	binary.LittleEndian.PutUint64(foreign[56:], fnv1a(foreign[:56]))
	f.Add(foreign)
	f.Add([]byte("GCS3"))                     // bare magic
	f.Add([]byte("GCS4junkjunkjunkjunkjunk")) // wrong magic falls through to v2

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzStateMu.Lock()
		defer fuzzStateMu.Unlock()
		c := fuzzStateCache()
		if err := c.ReadState(bytes.NewReader(data)); err != nil {
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
			ans := e.Answers()
			if ans.Len() != view.Size() {
				t.Fatalf("entry %d answers sized %d, dataset %d", e.ID, ans.Len(), view.Size())
			}
			if !subset(ans, view.Live()) {
				t.Fatalf("entry %d answers a tombstoned id", e.ID)
			}
		}
		// Accepted snapshots round-trip through the binary writer.
		var buf bytes.Buffer
		if err := c.WriteState(&buf); err != nil {
			t.Fatalf("re-serializing an accepted snapshot: %v", err)
		}
		c2 := fuzzStateCache()
		if err := c2.ReadState(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("roundtrip of an accepted snapshot was rejected: %v", err)
		}
		if c2.Len() != c.Len() {
			t.Fatalf("roundtrip entry count %d, want %d", c2.Len(), c.Len())
		}
	})
}
