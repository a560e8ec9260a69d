package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"graphcache/internal/bitset"
	"graphcache/internal/ftv"
	"graphcache/internal/graph"
	"graphcache/internal/mmap"
)

// State format v3 ("GCS3"): the binary, mmap-friendly snapshot format.
//
// The v2 text format rewrites and re-parses every entry on save/restore;
// at production cache sizes the restart cost is dominated by that
// serialization, not by queries (ROADMAP open item 2). GCS3 splits the
// snapshot into a fixed-size header, a fixed-size per-entry INDEX section
// and a variable BODY section, so a restore can consume the index — and
// everything hit detection needs — without touching the bodies at all:
//
//	header (64 bytes, little-endian):
//	  [0,4)    magic "GCS3"
//	  [4,8)    version (uint32, = 3)
//	  [8,16)   dataset size (uint64) — must equal the restoring cache's
//	  [16,24)  dataset epoch at write (int64) — diagnostic only: epochs
//	           restart with the process, so inequality is normal
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
//	  NATIVE container (sparse/run/dense tag + payload), so a round-trip
//	  preserves the adaptive compression instead of re-encoding index
//	  lists.
//
// Corruption detection is all-or-nothing, like v2: the header checksum
// covers the section geometry, the index checksum covers every record,
// record offsets must tile the body section exactly to the recorded file
// size, and each graph and answer blob carries its own checksum — a
// single flipped or truncated byte anywhere fails the restore with a
// descriptive error and leaves the cache untouched.
//
// # Lazy restore
//
// RestoreStateLazy reads the header, index and graph blobs eagerly — the
// signatures, feature summaries and hit index are rebuilt from the
// graphs, never trusted from disk, so admission, feature-index rebuild
// and hit detection work immediately — but leaves every ANSWER body in
// the file (mmapped on Unix via internal/mmap, plain pread elsewhere).
// An entry's answer state is published as a PENDING body (answerState
// with set nil); the first loadAnswers faults the body in: read, verify
// checksum, decode, publish through the cell's CAS — the same
// epoch-stamped publish discipline lazy reconciliation uses, and equally
// lock-free, so fault-in is legal on the //gclint:nolocks query path.
// Decoded sets dedup through the source's registry (keyed by checksum,
// confirmed by Equal), applying the interning idea at fault-in time; the
// pool's counted references catch up at the next true-up
// (rechargeLocked), exactly like lazily reconciled sets do.
//
// Dataset mutations between restore and fault-in stay exact: removals
// append the tombstoned id to the pending state's drop list (applied
// after decode), and additions are reconciled from the addition log on
// the read path — the pending epoch holds the log's compaction floor
// down until the entry faults in. A body that fails verification at
// fault-in time panics: the restore-time validation accepted the file,
// so the backing file was corrupted or truncated AFTER restore, and no
// exact answer can be produced (the kernel never returns approximate
// answers — the same contract as the SelfCheck panic).

const (
	stateMagicV3   = "GCS3"
	stateVersionV3 = 3
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

// stateSource is one open snapshot backing a restore: the random-access
// reader (an mmap.File for RestoreStateLazy, an in-memory buffer for
// ReadState), plus the fault-in dedup registry and the Monitor the fault
// counter reports to. For a lazy restore the source must stay open for
// the cache's lifetime — Close only after the cache is done (or after a
// later WriteState materialized everything).
type stateSource struct {
	r      io.ReaderAt
	size   int64
	closer io.Closer
	mon    *Monitor

	// dedup collapses equal decoded answer bodies across entries at
	// fault-in time, keyed by (checksum, length) and confirmed by Equal.
	// sync.Map, not a mutex: fault-in runs on the lock-free query path.
	dedup sync.Map
}

// Close releases the backing reader (a no-op for in-memory sources).
func (s *stateSource) Close() error {
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

func newMemStateSource(data []byte) *stateSource {
	return &stateSource{r: bytes.NewReader(data), size: int64(len(data))}
}

// bodyKey keys the fault-in dedup registry.
type bodyKey struct {
	sum    uint64
	length int64
}

// lazyBody locates one entry's still-on-disk answer set. Immutable after
// publication (a removal publishes a fresh lazyBody via withDrop — see
// RemoveGraph); the whole struct is part of the COW answerState.
type lazyBody struct {
	src    *stateSource
	off    int64
	length int64
	sum    uint64
	// cap is the answer set's capacity: the dataset size at write time
	// (== at restore time; growth since restore is reconciled from the
	// addition log after fault-in, like any stale entry).
	cap int
	// drops are ids tombstoned AFTER the snapshot was written (at restore
	// time: the complement of the live mask; afterwards: appended by
	// RemoveGraph), cleared from the decoded set at fault-in.
	drops []int
}

// withDrop returns a copy of b with gid appended to the drop list. The
// receiver is never mutated — it may be published.
func (b *lazyBody) withDrop(gid int) *lazyBody {
	nb := *b
	nb.drops = append(append([]int(nil), b.drops...), gid)
	return &nb
}

// materialize reads, verifies and decodes the body into an owned set,
// with drops applied. Panics on verification failure: restore validated
// this file, so a mismatch means the backing file changed underneath a
// live lazy cache — no exact answer exists (see the package comment).
func (b *lazyBody) materialize() *bitset.Set {
	buf := make([]byte, b.length)
	if _, err := b.src.r.ReadAt(buf, b.off); err != nil {
		panic(fmt.Sprintf("core: lazy state body at offset %d: %v (snapshot file truncated since restore?)", b.off, err))
	}
	if got := fnv1a(buf); got != b.sum {
		panic(fmt.Sprintf("core: lazy state body at offset %d: checksum mismatch (snapshot file corrupted since restore)", b.off))
	}
	set, n, err := bitset.FromBinary(buf)
	if err != nil || n != len(buf) {
		panic(fmt.Sprintf("core: lazy state body at offset %d: %v", b.off, err))
	}
	if set.Len() != b.cap {
		panic(fmt.Sprintf("core: lazy state body at offset %d: capacity %d, want %d", b.off, set.Len(), b.cap))
	}
	if len(b.drops) == 0 {
		// Share one decoded allocation across entries with equal bodies —
		// interning at fault-in time. The checksum keys the registry; Equal
		// confirms (FNV is not collision-free), falling back to the private
		// copy on the astronomically unlikely mismatch.
		if prev, loaded := b.src.dedup.LoadOrStore(bodyKey{b.sum, b.length}, set); loaded {
			if ps := prev.(*bitset.Set); ps.Equal(set) {
				return ps
			}
		}
		return set
	}
	for _, gid := range b.drops {
		if gid < set.Len() {
			set.Remove(gid)
		}
	}
	// The drop-adjusted set is owned until published; re-encode it into
	// its smallest container like every publication point does.
	set.Compact()
	return set
}

// faultAnswers materializes a pending answer state and publishes it
// through the cell's CAS, returning the resulting state. Lock-free; safe
// to race with other faulters (first publish wins, the loser re-reads)
// and with RemoveGraph's drop-list republish (the CAS fails against the
// superseded pending state and the retry sees the new drop list).
func (e *Entry) faultAnswers(st *answerState) *answerState {
	for {
		b := st.body
		// src.mon is set before any body is published (readStateV3). The
		// set is hashed here, on the faulting goroutine: the true-up that
		// later interns it runs under the full hierarchy and must not.
		mon := b.src.mon
		set := b.materialize()
		next := &answerState{set: set, fp: mon.hashSet(set), epoch: st.epoch}
		if e.ans.p.CompareAndSwap(st, next) {
			mon.stateBodyFaults.Add(1)
			return next
		}
		st = e.ans.p.Load()
		if st.body == nil {
			return st
		}
	}
}

// WriteState serializes the cache's admitted entries to w in the binary
// v3 format. Locking and consistency match WriteStateV2: the read side
// of the dataset mutex plus policyMu plus every shard lock, entries
// reconciled to the pinned view before serialization (on a lazily
// restored cache this faults every remaining body in — the new snapshot
// must not depend on the old backing file). Answer sets are written in
// their native containers, so save→restore preserves the adaptive
// compression byte-for-byte.
//
//gclint:acquires dsMu policyMu shard
//gclint:pins dataset
//gclint:deterministic
func (c *Cache) WriteState(w io.Writer) error {
	dsTok := c.dsMu.RLock()
	defer c.dsMu.RUnlock(dsTok)
	view := c.method.View()
	c.policyMu.Lock()
	defer c.policyMu.Unlock()
	c.lockAll()
	defer c.unlockAll()

	all := c.gatherLocked()
	c.foldCreditsLocked(all) // the utilities written below include every completed hit
	index := make([]byte, 0, len(all)*v3IndexLen)
	var body []byte
	bodyOff := uint64(v3HeaderLen + len(all)*v3IndexLen)
	var gbuf bytes.Buffer
	for _, e := range all {
		set := c.reconciledAnswers(e, view)
		gbuf.Reset()
		if err := graph.WriteGraph(&gbuf, e.Graph); err != nil {
			return err
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
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(view.Epoch()))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(all)))
	hdr = binary.LittleEndian.AppendUint64(hdr, bodyOff)
	hdr = binary.LittleEndian.AppendUint64(hdr, bodyOff+uint64(len(body)))
	hdr = binary.LittleEndian.AppendUint64(hdr, fnv1a(index))
	hdr = binary.LittleEndian.AppendUint64(hdr, fnv1a(hdr))

	bw := bufio.NewWriter(w)
	for _, sec := range [][]byte{hdr, index, body} {
		if _, err := bw.Write(sec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// RestoreStateLazy restores a v3 snapshot from path in lazy mode: the
// header, index and graphs load now (hit detection is immediately live),
// answer bodies fault in on first access. The returned closer owns the
// backing file (mmapped where the platform supports it) and must stay
// open for the cache's lifetime; closing it while unfaulted entries
// remain makes their first access panic. The restore itself is
// all-or-nothing, like ReadState.
func (c *Cache) RestoreStateLazy(path string) (io.Closer, error) {
	f, err := mmap.Open(path)
	if err != nil {
		return nil, err
	}
	src := &stateSource{r: f, size: f.Size(), closer: f}
	if err := c.readStateV3(src, true); err != nil {
		f.Close()
		return nil, err
	}
	return src, nil
}

// v3Error builds a restore error for the binary format.
func v3Error(format string, args ...any) error {
	return fmt.Errorf("core: state v3: %s", fmt.Sprintf(format, args...))
}

// readFullAt reads exactly len(p) bytes at off, mapping a short read to
// a truncation error.
func readFullAt(r io.ReaderAt, p []byte, off int64, what string) error {
	n, err := r.ReadAt(p, off)
	if n < len(p) {
		if err == nil || err == io.EOF {
			return v3Error("%s truncated: %d of %d bytes at offset %d", what, n, len(p), off)
		}
		return v3Error("reading %s at offset %d: %v", what, off, err)
	}
	return nil
}

// readStateV3 parses and restores a v3 snapshot from src, eagerly or
// lazily. Validation mirrors the writer exactly (see the format comment);
// nothing is installed until the whole snapshot — in lazy mode: header,
// index and every graph blob — verified.
//
//gclint:acquires dsMu windowMu policyMu shard
//gclint:pins dataset
func (c *Cache) readStateV3(src *stateSource, lazy bool) error {
	dsTok := c.dsMu.RLock()
	defer c.dsMu.RUnlock(dsTok)
	view := c.method.View()

	hdr := make([]byte, v3HeaderLen)
	if err := readFullAt(src.r, hdr, 0, "header"); err != nil {
		return err
	}
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
	entryCount := binary.LittleEndian.Uint64(hdr[24:])
	bodyOff := binary.LittleEndian.Uint64(hdr[32:])
	fileSize := binary.LittleEndian.Uint64(hdr[40:])
	indexSum := binary.LittleEndian.Uint64(hdr[48:])
	if dsSize64 != uint64(view.Size()) {
		return v3Error("state is for a %d-graph dataset, cache has %d", dsSize64, view.Size())
	}
	dsSize := int(dsSize64)
	if fileSize != uint64(src.size) {
		return v3Error("file size %d, header declares %d", src.size, fileSize)
	}
	if entryCount > (fileSize-v3HeaderLen)/v3IndexLen+1 ||
		bodyOff != v3HeaderLen+entryCount*v3IndexLen || bodyOff > fileSize {
		return v3Error("section geometry: %d entries, body at %d, file size %d", entryCount, bodyOff, fileSize)
	}

	idx := make([]byte, bodyOff-v3HeaderLen)
	if err := readFullAt(src.r, idx, v3HeaderLen, "index"); err != nil {
		return err
	}
	if fnv1a(idx) != indexSum {
		return v3Error("index checksum mismatch")
	}

	// Ids tombstoned since the snapshot was written must be masked out of
	// every restored set. Eager restores mask with the live set directly;
	// lazy restores carry the tombstones as a drop list applied at
	// fault-in (the live mask's capacity grows with later additions, but
	// the drop list stays valid forever).
	var drops []int
	if lazy && view.LiveCount() != view.Size() {
		live := view.Live()
		for i := 0; i < dsSize; i++ {
			if !live.Contains(i) {
				drops = append(drops, i)
			}
		}
	}
	src.mon = &c.mon

	entries := make([]*Entry, 0, entryCount)
	expectOff := bodyOff
	for i := uint64(0); i < entryCount; i++ {
		rec := idx[i*v3IndexLen : (i+1)*v3IndexLen]
		fp := binary.LittleEndian.Uint64(rec[0:])
		qt := binary.LittleEndian.Uint32(rec[8:])
		bc := binary.LittleEndian.Uint32(rec[12:])
		fv, err := ftv.FeatureVectorFromBinary(rec[16:72])
		if err != nil {
			return v3Error("entry %d: %v", i, err)
		}
		hits := int64(binary.LittleEndian.Uint64(rec[72:]))
		savedTests := math.Float64frombits(binary.LittleEndian.Uint64(rec[80:]))
		savedCost := math.Float64frombits(binary.LittleEndian.Uint64(rec[88:]))
		entryOff := binary.LittleEndian.Uint64(rec[96:])
		graphLen := binary.LittleEndian.Uint64(rec[104:])
		ansLen := binary.LittleEndian.Uint64(rec[112:])
		graphSum := binary.LittleEndian.Uint64(rec[120:])
		ansSum := binary.LittleEndian.Uint64(rec[128:])

		if qt != uint32(ftv.Subgraph) && qt != uint32(ftv.Supergraph) {
			return v3Error("entry %d: unknown query type %d", i, qt)
		}
		if hits < 0 {
			return v3Error("entry %d: negative hit count %d", i, hits)
		}
		if math.IsNaN(savedTests) || math.IsInf(savedTests, 0) || savedTests < 0 ||
			math.IsNaN(savedCost) || math.IsInf(savedCost, 0) || savedCost < 0 {
			return v3Error("entry %d: implausible utility %g/%g", i, savedTests, savedCost)
		}
		// Records must tile the body section exactly: offsets are derived,
		// not trusted, so no record can alias or skip another's bytes.
		if entryOff != expectOff {
			return v3Error("entry %d: body offset %d, want %d", i, entryOff, expectOff)
		}
		if graphLen > fileSize || ansLen > fileSize || expectOff+graphLen+ansLen > fileSize {
			return v3Error("entry %d: body [%d,+%d+%d) exceeds file size %d", i, entryOff, graphLen, ansLen, fileSize)
		}
		expectOff += graphLen + ansLen

		gb := make([]byte, graphLen)
		if err := readFullAt(src.r, gb, int64(entryOff), fmt.Sprintf("entry %d graph", i)); err != nil {
			return err
		}
		if fnv1a(gb) != graphSum {
			return v3Error("entry %d: graph checksum mismatch", i)
		}
		gs, err := graph.ReadAll(bytes.NewReader(gb))
		if err != nil {
			return v3Error("entry %d: graph: %v", i, err)
		}
		if len(gs) != 1 {
			return v3Error("entry %d: want one graph, got %d", i, len(gs))
		}
		// Signatures are rebuilt from the parsed graph, never trusted from
		// disk; the recorded fingerprint and feature vector must then agree
		// with the rebuilt ones, or the index and body sections describe
		// different graphs.
		sig := c.signatureOf(gs[0])
		if uint64(sig.fp) != fp {
			return v3Error("entry %d: fingerprint mismatch (index %#x, graph %#x)", i, fp, uint64(sig.fp))
		}
		if sig.fv != fv {
			return v3Error("entry %d: feature vector mismatch between index and graph", i)
		}

		ansOff := entryOff + graphLen
		var e *Entry
		if lazy {
			e = entryShell(gs[0], ftv.QueryType(qt), int(bc), sig, 0)
			e.ans.p.Store(&answerState{epoch: view.Epoch(), body: &lazyBody{
				src:    src,
				off:    int64(ansOff),
				length: int64(ansLen),
				sum:    ansSum,
				cap:    dsSize,
				drops:  drops,
			}})
		} else {
			ab := make([]byte, ansLen)
			if err := readFullAt(src.r, ab, int64(ansOff), fmt.Sprintf("entry %d answers", i)); err != nil {
				return err
			}
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
			set.And(view.Live())
			e = c.entryFromSig(gs[0], ftv.QueryType(qt), set, int(bc), sig, 0, view.Epoch())
		}
		e.Hits = hits
		e.SavedTests = savedTests
		e.SavedCostNs = savedCost
		entries = append(entries, e)
	}
	if expectOff != fileSize {
		return v3Error("body section ends at %d, file size %d", expectOff, fileSize)
	}

	c.replaceEntries(entries)
	return nil
}
