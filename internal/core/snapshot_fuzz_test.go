package core

import (
	"encoding/binary"
	"testing"
)

// Native fuzz target for the binary GCS3 snapshot reader. Like the text
// file, a snapshot is untrusted bytes on disk: the parser must never
// panic, must reject corruption all-or-nothing, and anything it accepts
// must restore entries answering what Method.Run answers and round-trip
// (checkFuzzRestore). The committed seed corpus under
// testdata/fuzz/FuzzReadSnapshot pins a valid snapshot, one written over
// another dataset, the truncation/flip shapes TestV3CorruptionSweep
// covers and the refused older versions; `make ci` runs a short -fuzz
// smoke pass on top of the regression replay.

func FuzzReadSnapshot(f *testing.F) {
	valid := warmFuzzState(f, fuzzStateFixture(), (*Cache).WriteState)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-body
	f.Add(valid[:v3HeaderLen])  // header only
	flipped := append([]byte(nil), valid...)
	flipped[v3HeaderLen+8] ^= 0x01 // one index bit
	f.Add(flipped)
	badVersion := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(badVersion[4:], 99)
	f.Add(badVersion)
	f.Add(withVersion(valid, 5))                                      // checksummed, so the version check refuses it
	f.Add(warmFuzzState(f, foreignFuzzMethod(), (*Cache).WriteState)) // written over another dataset
	f.Add([]byte("GCS3"))                                             // bare magic
	f.Add([]byte("GCS4junkjunkjunkjunkjunk"))                         // wrong magic falls through to the text parser

	f.Fuzz(func(t *testing.T, data []byte) { checkFuzzRestore(t, data, (*Cache).WriteState) })
}
