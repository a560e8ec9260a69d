package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"graphcache/internal/bitset"
	"graphcache/internal/ftv"
	"graphcache/internal/graph"
)

// State format v3 ("GCS3"): the binary snapshot format.
//
// The v2 text format rewrites and re-parses every entry on save/restore;
// at production cache sizes the restart cost is dominated by that
// serialization, not by queries (ROADMAP open item 2). GCS3 splits the
// snapshot into a fixed-size header, a fixed-size per-entry INDEX section
// and a variable BODY section, so every record is addressable without
// parsing the ones before it:
//
//	header (64 bytes, little-endian):
//	  [0,4)    magic "GCS3"
//	  [4,8)    version (uint32, = 5; version 3 files could hold the
//	           retired run container, version 4 files name their
//	           dataset by size alone, and both are refused)
//	  [8,16)   dataset size (uint64) — must equal the restoring cache's
//	  [16,24)  dataset digest (uint64, ftv.DatasetView.Digest) — must
//	           equal the restoring cache's: answer sets are dataset
//	           positions, exact only over the graphs they were computed on
//	  [24,32)  entry count (uint64)
//	  [32,40)  body section offset (uint64) = 64 + 136·entryCount
//	  [40,48)  file size (uint64)
//	  [48,56)  FNV-1a of the index section (uint64)
//	  [56,64)  FNV-1a of header bytes [0,56) (uint64)
//
//	index record (136 bytes per entry, little-endian):
//	  [0,8)     graph fingerprint (uint64)
//	  [8,12)    query type (uint32)
//	  [12,16)   base candidates |C_M| (uint32)
//	  [16,72)   ftv.FeatureVector (fixed 56-byte codec, internal/ftv)
//	  [72,80)   hits (int64)
//	  [80,88)   saved tests (float64 bits)
//	  [88,96)   saved cost ns (float64 bits)
//	  [96,104)  absolute offset of the entry's body (uint64)
//	  [104,112) graph byte length (uint64)
//	  [112,120) answer byte length (uint64)
//	  [120,128) FNV-1a of the graph bytes (uint64)
//	  [128,136) FNV-1a of the answer bytes (uint64)
//
//	body, per entry, contiguous and in index order:
//	  graph in the text codec (internal/graph), then the answer set in
//	  the bitset binary container encoding (internal/bitset) — the set's
//	  NATIVE container (sparse/dense tag + payload), so a round-trip
//	  preserves the adaptive compression instead of re-encoding index
//	  lists.
//
// Corruption detection is all-or-nothing, like v2: the header checksum
// covers the section geometry, the index checksum covers every record,
// record offsets must tile the body section exactly to the recorded file
// size, and each graph and answer blob carries its own checksum — a
// single flipped or truncated byte anywhere fails the restore with a
// descriptive error and leaves the cache untouched. Every byte is
// verified before the restore installs anything, so a file that restores
// can never fail a later query.

const (
	stateMagicV3   = "GCS3"
	stateVersionV3 = 5
	v3HeaderLen    = 64
	v3IndexLen     = 136
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
// v3 format. Locking and consistency match WriteStateV2: header, index
// and body are built in memory under mu over one pinned view
// (snapshotState), and w is written only after mu is released. Answer
// sets are written in their native containers, so save→restore
// preserves the adaptive compression byte-for-byte.
func (c *Cache) WriteState(w io.Writer) error {
	var secs [3][]byte
	err := c.snapshotState(func(view ftv.DatasetView, all []*Entry, sets []*bitset.Set) (err error) {
		secs, err = formatStateV3(view, all, sets)
		return err
	})
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	for _, sec := range secs {
		if _, err := bw.Write(sec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// formatStateV3 lays out the v3 sections of the entries, whose answers
// are exact for the view.
func formatStateV3(view ftv.DatasetView, all []*Entry, sets []*bitset.Set) ([3][]byte, error) {
	index := make([]byte, 0, len(all)*v3IndexLen)
	var body []byte
	bodyOff := uint64(v3HeaderLen + len(all)*v3IndexLen)
	var gbuf bytes.Buffer
	for i, e := range all {
		set := sets[i]
		gbuf.Reset()
		if err := graph.WriteGraph(&gbuf, e.Graph); err != nil {
			return [3][]byte{}, err
		}
		gb := gbuf.Bytes()
		entryOff := bodyOff + uint64(len(body))
		body = append(body, gb...)
		ansStart := len(body)
		body = set.AppendBinary(body)
		ab := body[ansStart:]

		index = binary.LittleEndian.AppendUint64(index, uint64(e.Fingerprint))
		index = binary.LittleEndian.AppendUint32(index, uint32(e.Type))
		index = binary.LittleEndian.AppendUint32(index, uint32(e.BaseCandidates))
		index = e.FV.AppendBinary(index)
		index = binary.LittleEndian.AppendUint64(index, uint64(e.Hits))
		index = binary.LittleEndian.AppendUint64(index, math.Float64bits(e.SavedTests))
		index = binary.LittleEndian.AppendUint64(index, math.Float64bits(e.SavedCostNs))
		index = binary.LittleEndian.AppendUint64(index, entryOff)
		index = binary.LittleEndian.AppendUint64(index, uint64(len(gb)))
		index = binary.LittleEndian.AppendUint64(index, uint64(len(ab)))
		index = binary.LittleEndian.AppendUint64(index, fnv1a(gb))
		index = binary.LittleEndian.AppendUint64(index, fnv1a(ab))
	}

	hdr := make([]byte, 0, v3HeaderLen)
	hdr = append(hdr, stateMagicV3...)
	hdr = binary.LittleEndian.AppendUint32(hdr, stateVersionV3)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(view.Size()))
	hdr = binary.LittleEndian.AppendUint64(hdr, view.Digest())
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(all)))
	hdr = binary.LittleEndian.AppendUint64(hdr, bodyOff)
	hdr = binary.LittleEndian.AppendUint64(hdr, bodyOff+uint64(len(body)))
	hdr = binary.LittleEndian.AppendUint64(hdr, fnv1a(index))
	hdr = binary.LittleEndian.AppendUint64(hdr, fnv1a(hdr))
	return [3][]byte{hdr, index, body}, nil
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

// readStateV3 parses and restores a v3 snapshot held whole in data.
// Validation mirrors the writer exactly (see the format comment); nothing
// is installed until every section, graph and answer set verified.
func (c *Cache) readStateV3(data []byte) error {
	view := c.method.View()

	if len(data) < v3HeaderLen {
		return v3Error("header truncated: %d of %d bytes", len(data), v3HeaderLen)
	}
	hdr := data[:v3HeaderLen]
	if string(hdr[:4]) != stateMagicV3 {
		return v3Error("bad magic %q", hdr[:4])
	}
	if got, want := fnv1a(hdr[:56]), binary.LittleEndian.Uint64(hdr[56:]); got != want {
		return v3Error("header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != stateVersionV3 {
		return v3Error("unsupported state version %d (want %d)", v, stateVersionV3)
	}
	dsSize64 := binary.LittleEndian.Uint64(hdr[8:])
	digest := binary.LittleEndian.Uint64(hdr[16:])
	entryCount := binary.LittleEndian.Uint64(hdr[24:])
	bodyOff := binary.LittleEndian.Uint64(hdr[32:])
	fileSize := binary.LittleEndian.Uint64(hdr[40:])
	indexSum := binary.LittleEndian.Uint64(hdr[48:])
	if err := checkDataset(view, dsSize64, digest); err != nil {
		return v3Error("%v", err)
	}
	dsSize := int(dsSize64)
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

	entries := make([]*Entry, 0, entryCount)
	expectOff := bodyOff
	for i := uint64(0); i < entryCount; i++ {
		rec := idx[i*v3IndexLen : (i+1)*v3IndexLen]
		fp := binary.LittleEndian.Uint64(rec[0:])
		fv, err := ftv.FeatureVectorFromBinary(rec[16:72])
		if err != nil {
			return v3Error("entry %d: %v", i, err)
		}
		r := entryRecord{
			qt:             int64(binary.LittleEndian.Uint32(rec[8:])),
			baseCandidates: int64(binary.LittleEndian.Uint32(rec[12:])),
			hits:           int64(binary.LittleEndian.Uint64(rec[72:])),
			savedTests:     math.Float64frombits(binary.LittleEndian.Uint64(rec[80:])),
			savedCost:      math.Float64frombits(binary.LittleEndian.Uint64(rec[88:])),
		}
		if err := r.check(dsSize); err != nil {
			return v3Error("entry %d: %v", i, err)
		}
		entryOff := binary.LittleEndian.Uint64(rec[96:])
		graphLen := binary.LittleEndian.Uint64(rec[104:])
		ansLen := binary.LittleEndian.Uint64(rec[112:])
		graphSum := binary.LittleEndian.Uint64(rec[120:])
		ansSum := binary.LittleEndian.Uint64(rec[128:])

		// Records must tile the body section exactly: offsets are derived,
		// not trusted, so no record can alias or skip another's bytes.
		if entryOff != expectOff {
			return v3Error("entry %d: body offset %d, want %d", i, entryOff, expectOff)
		}
		if graphLen > fileSize || ansLen > fileSize || expectOff+graphLen+ansLen > fileSize {
			return v3Error("entry %d: body [%d,+%d+%d) exceeds file size %d", i, entryOff, graphLen, ansLen, fileSize)
		}
		expectOff += graphLen + ansLen

		gb := data[entryOff : entryOff+graphLen]
		if fnv1a(gb) != graphSum {
			return v3Error("entry %d: graph checksum mismatch", i)
		}
		ab := data[entryOff+graphLen : expectOff]
		if fnv1a(ab) != ansSum {
			return v3Error("entry %d: answer checksum mismatch", i)
		}
		set, n, err := bitset.FromBinary(ab)
		if err != nil {
			return v3Error("entry %d: answers: %v", i, err)
		}
		if n != len(ab) {
			return v3Error("entry %d: answers: %d trailing bytes", i, len(ab)-n)
		}
		if set.Len() != dsSize {
			return v3Error("entry %d: answer capacity %d, want %d", i, set.Len(), dsSize)
		}
		e, err := restoreEntry(view, r, bytes.NewReader(gb), set)
		if err != nil {
			return v3Error("entry %d: %v", i, err)
		}
		// A recorded fingerprint or feature vector that disagrees with the
		// rebuilt one means index and body describe different graphs.
		if uint64(e.Fingerprint) != fp {
			return v3Error("entry %d: fingerprint mismatch (index %#x, graph %#x)", i, fp, uint64(e.Fingerprint))
		}
		if e.FV != fv {
			return v3Error("entry %d: feature vector mismatch between index and graph", i)
		}
		entries = append(entries, e)
	}
	if expectOff != fileSize {
		return v3Error("body section ends at %d, file size %d", expectOff, fileSize)
	}

	c.replaceEntries(entries)
	return nil
}
