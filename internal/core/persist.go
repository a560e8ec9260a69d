package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"graphcache/internal/ftv"
	"graphcache/internal/graph"
)

// Cache state persistence: a warm cache is the product of an expensive
// query history, so a production deployment wants to survive restarts.
// An entry's answer set is a materialised view — a function of its
// pattern, its query type and the dataset, which Method M recomputes on
// demand — so a snapshot stores patterns and utilities, not answers.
// WriteState records the admitted entries (pending window entries are
// deliberately excluded — they have not passed admission control);
// ReadState re-runs each recorded pattern on the dataset view it pins.
// A snapshot therefore restores over any dataset: the one it was written
// on, that one after additions and removals, or another.
//
// The format, "GCS3", splits a snapshot into a fixed-size header, a
// fixed-size per-entry INDEX section and a variable BODY section, so
// every record is addressable without parsing the ones before it:
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
// Corruption detection is all-or-nothing: the header checksum covers the
// section geometry, the index checksum covers every record, record
// offsets must tile the body section exactly to the recorded file size,
// each graph carries its own checksum, and the fingerprint rebuilt from a
// graph must equal its record's — a single flipped or truncated byte
// anywhere fails the restore with a descriptive error and leaves the
// cache untouched. Recency/insertion ticks are reset on load (the new
// process has its own clock); utility counters survive. Answers, feature
// vectors and the hit index are rebuilt on the restoring view, never
// trusted from disk.

const (
	stateMagic   = "GCS3"
	stateVersion = 6
	headerLen    = 48
	indexLen     = 64
)

// fnv1a is the 64-bit FNV-1a hash of data — the checksum used by every
// snapshot section. Not cryptographic: it detects corruption, not
// tampering.
func fnv1a(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// WriteState serializes the cache's admitted entries to w. The records
// are copied under mu (records), laid out after it is released and
// written to w last, so a slow writer stalls no query.
func (c *Cache) WriteState(w io.Writer) error {
	recs := c.records()
	index := make([]byte, 0, len(recs)*indexLen)
	var body bytes.Buffer
	bodyOff := uint64(headerLen + len(recs)*indexLen)
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

	hdr := make([]byte, 0, headerLen)
	hdr = append(hdr, stateMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, stateVersion)
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

// WriteStateV2 is WriteState: the method stays only because the
// benchmark harness calls it, and goes with ROADMAP item 1(a).
func (c *Cache) WriteStateV2(w io.Writer) error { return c.WriteState(w) }

// entryRecord is what a snapshot records of an entry: its pattern (and
// the pattern's fingerprint), its query type, the base candidate count
// |C_M| it was admitted with and its policy utilities.
type entryRecord struct {
	g              *graph.Graph
	fp             graph.Fingerprint
	qt             int64
	baseCandidates int64
	hits           int64
	savedTests     float64
	savedCost      float64
}

// records returns the records of the admitted entries in admission order.
// The pending exact-hit credits are folded first, so the utilities
// include every completed hit. The resident list and the utility fields
// are mutated under mu, so they are copied under it; the graphs are
// immutable and are laid out by the caller once mu is released.
func (c *Cache) records() []entryRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	all := c.published.Load().all
	c.foldCreditsLocked(all)
	recs := make([]entryRecord, len(all))
	for i, e := range all {
		recs[i] = entryRecord{
			g: e.Graph, fp: e.Fingerprint, qt: int64(e.Type), baseCandidates: int64(e.BaseCandidates),
			hits: e.Hits, savedTests: e.SavedTests, savedCost: e.SavedCostNs,
		}
	}
	return recs
}

// check refuses the record values no writer produces, each of which would
// skew saved-test counts or policy ranks: an unknown query type, negative
// hits, a NaN, infinite or negative utility. (Base candidates are stored
// unsigned, so none reads back negative.)
func (r entryRecord) check() error {
	switch {
	case r.qt != int64(ftv.Subgraph) && r.qt != int64(ftv.Supergraph):
		return fmt.Errorf("unknown query type %d", r.qt)
	case r.hits < 0:
		return fmt.Errorf("negative hit count %d", r.hits)
	case !(r.savedTests >= 0 && r.savedCost >= 0) || math.IsInf(r.savedTests, 1) || math.IsInf(r.savedCost, 1):
		return fmt.Errorf("implausible utility %g/%g", r.savedTests, r.savedCost)
	}
	return nil
}

// parseGraph reads the one graph of a record's text and records it in r
// with its fingerprint.
func (r *entryRecord) parseGraph(text io.Reader) error {
	gs, err := graph.ReadAll(text)
	if err != nil {
		return fmt.Errorf("graph: %v", err)
	}
	if len(gs) != 1 {
		return fmt.Errorf("graph: want one graph, got %d", len(gs))
	}
	r.g, r.fp = gs[0], gs[0].WLFingerprint(3)
	return nil
}

// entry builds r's entry over the view with the miss path's stages: one
// walk gives C_M and the row, and verify tests C_M with the pattern bound
// once, in sc; its cost samples are dropped. BaseCandidates stays the
// recorded |C_M| — history, like Hits — capped at the view's id space.
// Takes no lock and moves no Monitor counter or cost cell.
func (c *Cache) entry(r entryRecord, view ftv.DatasetView, sc *execScratch) *Entry {
	qt := ftv.QueryType(r.qt)
	walk := view.Walk(r.g)
	cm, row := walk.Candidates(qt), walk.Decoded().Row
	walk.Release()
	answers, _, _ := c.verify(view, r.g, qt, cm, sc, time.Now())
	e := newEntry(r.g, qt, answers, view, int(min(r.baseCandidates, int64(view.Size()))),
		r.fp, graph.ExtractFeatures(r.g), row, 0)
	e.Hits, e.SavedTests, e.SavedCostNs = r.hits, r.savedTests, r.savedCost
	return e
}

// restore is the commit phase of a restore, called once every record is
// parsed and checked: it pins one dataset view, builds every entry on it
// over runtime.GOMAXPROCS(0) workers, each with one pooled scratch, all
// done before it returns, and installs them in one step (replaceEntries).
// A mutation landing meanwhile is brought in by the entries' next readers.
func (c *Cache) restore(recs []entryRecord) {
	view := c.method.View()
	entries := make([]*Entry, len(recs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(recs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := getExecScratch()
			defer putExecScratch(sc)
			for i := next.Add(1) - 1; i < int64(len(recs)); i = next.Add(1) - 1 {
				entries[i] = c.entry(recs[i], view, sc)
			}
		}()
	}
	wg.Wait()
	c.replaceEntries(entries)
}

// stateError builds a restore error.
func stateError(format string, args ...any) error {
	return fmt.Errorf("core: state: %s", fmt.Sprintf(format, args...))
}

// ReadState restores a snapshot written by WriteState into the cache,
// replacing its current contents. Any dataset will do: each recorded
// pattern is re-run by Method M on the view the restore pins (restore).
//
// Restores are all-or-nothing: the entire snapshot is read and validated
// — magic, version, checksums, section bounds and record values — before
// any pattern is re-run, so a truncated, corrupt or foreign file fails
// with a descriptive error and leaves the cache exactly as it was (empty,
// when the load happens at boot). On success the feature index is
// rebuilt before mu drops.
func (c *Cache) ReadState(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("core: reading state: %w", err)
	}
	return c.readState(data)
}

// readState parses and restores a snapshot held whole in data.
// Validation mirrors the writer exactly (see the format comment); no
// pattern is re-run until every section and graph verified.
func (c *Cache) readState(data []byte) error {
	// The magic comes before the length, so a file of another kind is
	// refused as such however short it is.
	if len(data) >= len(stateMagic) && string(data[:len(stateMagic)]) != stateMagic {
		return stateError("bad magic %q", data[:len(stateMagic)])
	}
	if len(data) < headerLen {
		return stateError("header truncated: %d of %d bytes", len(data), headerLen)
	}
	hdr := data[:headerLen]
	// The version comes before the checksum: an older version laid its
	// header out differently, and gets the actionable version error.
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != stateVersion {
		return stateError("unsupported state version %d (want %d)", v, stateVersion)
	}
	if got, want := fnv1a(hdr[:40]), binary.LittleEndian.Uint64(hdr[40:]); got != want {
		return stateError("header checksum mismatch")
	}
	entryCount := binary.LittleEndian.Uint64(hdr[8:])
	bodyOff := binary.LittleEndian.Uint64(hdr[16:])
	fileSize := binary.LittleEndian.Uint64(hdr[24:])
	indexSum := binary.LittleEndian.Uint64(hdr[32:])
	// From here on every slice is in bounds: the data is exactly fileSize
	// bytes, the index ends at bodyOff ≤ fileSize, and each record's body
	// is checked against fileSize before it is sliced.
	if fileSize != uint64(len(data)) {
		return stateError("file size %d, header declares %d", len(data), fileSize)
	}
	if entryCount > (fileSize-headerLen)/indexLen+1 ||
		bodyOff != headerLen+entryCount*indexLen || bodyOff > fileSize {
		return stateError("section geometry: %d entries, body at %d, file size %d", entryCount, bodyOff, fileSize)
	}
	idx := data[headerLen:bodyOff]
	if fnv1a(idx) != indexSum {
		return stateError("index checksum mismatch")
	}

	recs := make([]entryRecord, entryCount)
	expectOff := bodyOff
	for i := range recs {
		rec := idx[i*indexLen : (i+1)*indexLen]
		r := &recs[i]
		r.qt = int64(binary.LittleEndian.Uint32(rec[8:]))
		r.baseCandidates = int64(binary.LittleEndian.Uint32(rec[12:]))
		r.hits = int64(binary.LittleEndian.Uint64(rec[16:]))
		r.savedTests = math.Float64frombits(binary.LittleEndian.Uint64(rec[24:]))
		r.savedCost = math.Float64frombits(binary.LittleEndian.Uint64(rec[32:]))
		if err := r.check(); err != nil {
			return stateError("entry %d: %v", i, err)
		}
		entryOff := binary.LittleEndian.Uint64(rec[40:])
		graphLen := binary.LittleEndian.Uint64(rec[48:])

		// Records must tile the body section exactly: offsets are derived,
		// not trusted, so no record can alias or skip another's bytes.
		if entryOff != expectOff {
			return stateError("entry %d: body offset %d, want %d", i, entryOff, expectOff)
		}
		if graphLen > fileSize || expectOff+graphLen > fileSize {
			return stateError("entry %d: body [%d,+%d) exceeds file size %d", i, entryOff, graphLen, fileSize)
		}
		expectOff += graphLen

		gb := data[entryOff:expectOff]
		if fnv1a(gb) != binary.LittleEndian.Uint64(rec[56:]) {
			return stateError("entry %d: graph checksum mismatch", i)
		}
		if err := r.parseGraph(bytes.NewReader(gb)); err != nil {
			return stateError("entry %d: %v", i, err)
		}
		// A recorded fingerprint that disagrees with the rebuilt one means
		// index and body describe different graphs.
		if fp := binary.LittleEndian.Uint64(rec[0:]); uint64(r.fp) != fp {
			return stateError("entry %d: fingerprint mismatch (index %#x, graph %#x)", i, fp, uint64(r.fp))
		}
	}
	if expectOff != fileSize {
		return stateError("body section ends at %d, file size %d", expectOff, fileSize)
	}
	c.restore(recs)
	return nil
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

// replaceEntries installs entries as the cache's entire content, evicted
// down to Capacity — the last step of every restore. Stop-the-world under
// mu, so no admission interleaves, the pending window is cleared, and
// queries see the old view until the new one is published.
func (c *Cache) replaceEntries(entries []*Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.window = c.window[:0]
	tick := c.tick.Load()
	bytes := 0
	for _, e := range entries {
		e.ID = c.nextID
		c.nextID++
		e.InsertedAt = tick
		e.LastUsed = tick
		bytes += e.Bytes()
	}
	kept, freed := c.evictLocked(make([]*Entry, 0, min(len(entries), c.cfg.Capacity)), entries, len(entries)-c.cfg.Capacity)
	c.publishLocked(kept, bytes-freed)
}
