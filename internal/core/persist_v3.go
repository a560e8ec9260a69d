package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"graphcache/internal/graph"
)

// State format "GCS3": the binary snapshot format.
//
// The text format rewrites and re-parses every entry on save/restore;
// GCS3 splits the snapshot into a fixed-size header, a fixed-size
// per-entry INDEX section and a variable BODY section, so every record is
// addressable without parsing the ones before it. Like the text format it
// holds no answers (persist.go):
//
//	header (48 bytes, little-endian):
//	  [0,4)    magic "GCS3"
//	  [4,8)    version (uint32, = 6; versions 3 to 5 carried answer
//	           sets and are refused)
//	  [8,16)   entry count (uint64)
//	  [16,24)  body section offset (uint64) = 48 + 64·entryCount
//	  [24,32)  file size (uint64)
//	  [32,40)  FNV-1a of the index section (uint64)
//	  [40,48)  FNV-1a of header bytes [0,40) (uint64)
//
//	index record (64 bytes per entry, little-endian):
//	  [0,8)    graph fingerprint (uint64)
//	  [8,12)   query type (uint32)
//	  [12,16)  base candidates |C_M| (uint32)
//	  [16,24)  hits (int64)
//	  [24,32)  saved tests (float64 bits)
//	  [32,40)  saved cost ns (float64 bits)
//	  [40,48)  absolute offset of the entry's body (uint64)
//	  [48,56)  graph byte length (uint64)
//	  [56,64)  FNV-1a of the graph bytes (uint64)
//
//	body, per entry, contiguous and in index order: the graph in the
//	text codec (internal/graph).
//
// Corruption detection is all-or-nothing, like the text format: the
// header checksum covers the section geometry, the index checksum covers
// every record, record offsets must tile the body section exactly to the
// recorded file size, each graph carries its own checksum, and the
// fingerprint rebuilt from a graph must equal its record's — a single
// flipped or truncated byte anywhere fails the restore with a descriptive
// error and leaves the cache untouched.

const (
	stateMagicV3   = "GCS3"
	stateVersionV3 = 6
	v3HeaderLen    = 48
	v3IndexLen     = 64
)

// fnv1a is the 64-bit FNV-1a hash of data — the checksum used by every
// GCS3 section. Not cryptographic: it detects corruption, not tampering.
func fnv1a(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// WriteState serializes the cache's admitted entries to w in the binary
// format. Locking matches WriteStateV2: the records are copied under mu
// (records), laid out after it is released and written to w last.
func (c *Cache) WriteState(w io.Writer) error {
	recs := c.records()
	index := make([]byte, 0, len(recs)*v3IndexLen)
	var body bytes.Buffer
	bodyOff := uint64(v3HeaderLen + len(recs)*v3IndexLen)
	for _, r := range recs {
		start := body.Len()
		if err := graph.WriteGraph(&body, r.g); err != nil {
			return err
		}
		gb := body.Bytes()[start:]
		index = binary.LittleEndian.AppendUint64(index, uint64(r.fp))
		index = binary.LittleEndian.AppendUint32(index, uint32(r.qt))
		index = binary.LittleEndian.AppendUint32(index, uint32(r.baseCandidates))
		index = binary.LittleEndian.AppendUint64(index, uint64(r.hits))
		index = binary.LittleEndian.AppendUint64(index, math.Float64bits(r.savedTests))
		index = binary.LittleEndian.AppendUint64(index, math.Float64bits(r.savedCost))
		index = binary.LittleEndian.AppendUint64(index, bodyOff+uint64(start))
		index = binary.LittleEndian.AppendUint64(index, uint64(len(gb)))
		index = binary.LittleEndian.AppendUint64(index, fnv1a(gb))
	}

	hdr := make([]byte, 0, v3HeaderLen)
	hdr = append(hdr, stateMagicV3...)
	hdr = binary.LittleEndian.AppendUint32(hdr, stateVersionV3)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(recs)))
	hdr = binary.LittleEndian.AppendUint64(hdr, bodyOff)
	hdr = binary.LittleEndian.AppendUint64(hdr, bodyOff+uint64(body.Len()))
	hdr = binary.LittleEndian.AppendUint64(hdr, fnv1a(index))
	hdr = binary.LittleEndian.AppendUint64(hdr, fnv1a(hdr))
	bw := bufio.NewWriter(w)
	for _, sec := range [][]byte{hdr, index, body.Bytes()} {
		if _, err := bw.Write(sec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// RestoreStateLazy restores the snapshot file at path. Despite its name
// the restore is eager and all-or-nothing, exactly ReadState, and the
// returned closer is a no-op: the method stays only because the
// benchmark harness calls it, and goes with ROADMAP item 1.
func (c *Cache) RestoreStateLazy(path string) (io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := c.ReadState(f); err != nil {
		return nil, err
	}
	return io.NopCloser(nil), nil
}

// v3Error builds a restore error for the binary format.
func v3Error(format string, args ...any) error {
	return fmt.Errorf("core: state v3: %s", fmt.Sprintf(format, args...))
}

// readStateV3 parses and restores a GCS3 snapshot held whole in data.
// Validation mirrors the writer exactly (see the format comment); no
// pattern is re-run until every section and graph verified.
func (c *Cache) readStateV3(data []byte) error {
	if len(data) < v3HeaderLen {
		return v3Error("header truncated: %d of %d bytes", len(data), v3HeaderLen)
	}
	hdr := data[:v3HeaderLen]
	if string(hdr[:4]) != stateMagicV3 {
		return v3Error("bad magic %q", hdr[:4])
	}
	// The version comes before the checksum: an older version laid its
	// header out differently, and gets the actionable version error.
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != stateVersionV3 {
		return v3Error("unsupported state version %d (want %d)", v, stateVersionV3)
	}
	if got, want := fnv1a(hdr[:40]), binary.LittleEndian.Uint64(hdr[40:]); got != want {
		return v3Error("header checksum mismatch")
	}
	entryCount := binary.LittleEndian.Uint64(hdr[8:])
	bodyOff := binary.LittleEndian.Uint64(hdr[16:])
	fileSize := binary.LittleEndian.Uint64(hdr[24:])
	indexSum := binary.LittleEndian.Uint64(hdr[32:])
	// From here on every slice is in bounds: the data is exactly fileSize
	// bytes, the index ends at bodyOff ≤ fileSize, and each record's body
	// is checked against fileSize before it is sliced.
	if fileSize != uint64(len(data)) {
		return v3Error("file size %d, header declares %d", len(data), fileSize)
	}
	if entryCount > (fileSize-v3HeaderLen)/v3IndexLen+1 ||
		bodyOff != v3HeaderLen+entryCount*v3IndexLen || bodyOff > fileSize {
		return v3Error("section geometry: %d entries, body at %d, file size %d", entryCount, bodyOff, fileSize)
	}
	idx := data[v3HeaderLen:bodyOff]
	if fnv1a(idx) != indexSum {
		return v3Error("index checksum mismatch")
	}

	recs := make([]entryRecord, entryCount)
	expectOff := bodyOff
	for i := range recs {
		rec := idx[i*v3IndexLen : (i+1)*v3IndexLen]
		r := &recs[i]
		r.qt = int64(binary.LittleEndian.Uint32(rec[8:]))
		r.baseCandidates = int64(binary.LittleEndian.Uint32(rec[12:]))
		r.hits = int64(binary.LittleEndian.Uint64(rec[16:]))
		r.savedTests = math.Float64frombits(binary.LittleEndian.Uint64(rec[24:]))
		r.savedCost = math.Float64frombits(binary.LittleEndian.Uint64(rec[32:]))
		if err := r.check(); err != nil {
			return v3Error("entry %d: %v", i, err)
		}
		entryOff := binary.LittleEndian.Uint64(rec[40:])
		graphLen := binary.LittleEndian.Uint64(rec[48:])

		// Records must tile the body section exactly: offsets are derived,
		// not trusted, so no record can alias or skip another's bytes.
		if entryOff != expectOff {
			return v3Error("entry %d: body offset %d, want %d", i, entryOff, expectOff)
		}
		if graphLen > fileSize || expectOff+graphLen > fileSize {
			return v3Error("entry %d: body [%d,+%d) exceeds file size %d", i, entryOff, graphLen, fileSize)
		}
		expectOff += graphLen

		gb := data[entryOff:expectOff]
		if fnv1a(gb) != binary.LittleEndian.Uint64(rec[56:]) {
			return v3Error("entry %d: graph checksum mismatch", i)
		}
		if err := r.parseGraph(bytes.NewReader(gb)); err != nil {
			return v3Error("entry %d: %v", i, err)
		}
		// A recorded fingerprint that disagrees with the rebuilt one means
		// index and body describe different graphs.
		if fp := binary.LittleEndian.Uint64(rec[0:]); uint64(r.fp) != fp {
			return v3Error("entry %d: fingerprint mismatch (index %#x, graph %#x)", i, fp, uint64(r.fp))
		}
	}
	if expectOff != fileSize {
		return v3Error("body section ends at %d, file size %d", expectOff, fileSize)
	}
	c.restore(recs)
	return nil
}
