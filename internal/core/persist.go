package core

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

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
// Two formats exist. WriteState writes the binary format ("GCS3",
// persist_v3.go): fixed header, fixed-size per-entry index records and
// checksummed graph bodies. WriteStateV2 keeps the line-oriented text
// format below; ReadState sniffs the leading magic and accepts either.
//
// The text format (header version 3, the first without answers):
//
//	gcstate 3 <entry-count>
//	entry <type> <vertices> <edges> <baseCandidates> <hits> <savedTests> <savedCostNs>
//	<graph in the text codec>
//	...
//	end
//
// Corruption is detectable everywhere a file could be silently truncated:
// the header carries the entry count, each entry line carries the graph's
// vertex/edge counts (validated against the parsed graph), and the stream
// must close with an "end" trailer. Older versions are refused.
// Recency/insertion ticks are reset on load (the new process has its own
// clock); utility counters survive. Answers, feature vectors,
// fingerprints and the hit index are rebuilt on the restoring view,
// never trusted from disk.

const stateVersionText = 3

// WriteStateV2 serializes the cache's admitted entries to w in the text
// format. The records are copied under mu (records), formatted after it
// is released and written to w last, so a slow writer stalls no query.
func (c *Cache) WriteStateV2(w io.Writer) error {
	recs := c.records()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "gcstate %d %d\n", stateVersionText, len(recs))
	for _, r := range recs {
		fmt.Fprintf(&buf, "entry %d %d %d %d %d %g %g\n",
			r.qt, r.g.N(), r.g.M(), r.baseCandidates, r.hits, r.savedTests, r.savedCost)
		if err := graph.WriteGraph(&buf, r.g); err != nil {
			return err
		}
	}
	buf.WriteString("end\n")
	_, err := buf.WriteTo(w)
	return err
}

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
	c.foldCreditsLocked(c.entries)
	recs := make([]entryRecord, len(c.entries))
	for i, e := range c.entries {
		recs[i] = entryRecord{
			g: e.Graph, fp: e.Fingerprint, qt: int64(e.Type), baseCandidates: int64(e.BaseCandidates),
			hits: e.Hits, savedTests: e.SavedTests, savedCost: e.SavedCostNs,
		}
	}
	return recs
}

// check refuses the record values no writer produces, each of which would
// skew saved-test counts or policy ranks: an unknown query type, negative
// hits or base candidates, a NaN, infinite or negative utility.
func (r entryRecord) check() error {
	switch {
	case r.qt != int64(ftv.Subgraph) && r.qt != int64(ftv.Supergraph):
		return fmt.Errorf("unknown query type %d", r.qt)
	case r.hits < 0:
		return fmt.Errorf("negative hit count %d", r.hits)
	case r.baseCandidates < 0:
		return fmt.Errorf("negative base candidates %d", r.baseCandidates)
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

// entry builds the record's entry over the view: its answers re-run by
// Method M, its summary walked on the view, its utilities the record's.
// BaseCandidates stays the recorded admission-time |C_M| — history, like
// Hits — capped at the view's id space. Takes no lock and touches no
// Monitor counter.
func (r entryRecord) entry(view ftv.DatasetView) *Entry {
	qt := ftv.QueryType(r.qt)
	e := newEntry(r.g, qt, view.Run(r.g, qt).Answers, view, int(min(r.baseCandidates, int64(view.Size()))),
		r.fp, summaryOn(view, r.g), 0)
	e.Hits, e.SavedTests, e.SavedCostNs = r.hits, r.savedTests, r.savedCost
	return e
}

// restore is the commit phase both formats share, called once every
// record is parsed and checked: it pins one dataset view, re-runs every
// pattern on it over runtime.GOMAXPROCS(0) workers, all of which are
// done before it returns, and installs the entries in one step
// (replaceEntries). The answers are exact for the pinned view, so a
// mutation landing meanwhile is brought in by the entries' next readers.
func (c *Cache) restore(recs []entryRecord) {
	view := c.method.View()
	entries := make([]*Entry, len(recs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(recs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(recs)); i = next.Add(1) - 1 {
				entries[i] = recs[i].entry(view)
			}
		}()
	}
	wg.Wait()
	c.replaceEntries(entries)
}

// stateError builds a line-numbered restore error.
func stateError(line int, format string, args ...any) error {
	return fmt.Errorf("core: state line %d: %s", line, fmt.Sprintf(format, args...))
}

// ReadState restores entries serialized by WriteState (binary) or
// WriteStateV2 (text) into the cache, replacing its current contents; the
// leading magic selects the parser. Any dataset will do: each recorded
// pattern is re-run by Method M on the view the restore pins (restore).
//
// Restores are all-or-nothing: the entire stream is parsed and validated —
// entry counts, per-graph vertex/edge counts and record values, checksums
// and section bounds in GCS3, the end trailer in the text format — before
// any pattern is re-run, so a truncated or corrupt state file fails with a
// descriptive error and leaves the cache exactly as it was (empty, when
// the load happens at boot). On success the feature index is rebuilt
// before mu drops.
func (c *Cache) ReadState(r io.Reader) error {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(len(stateMagicV3)); err == nil && string(magic) == stateMagicV3 {
		data, err := io.ReadAll(br)
		if err != nil {
			return fmt.Errorf("core: reading state: %w", err)
		}
		return c.readStateV3(data)
	}
	return c.readStateV2(br)
}

// readStateV2 parses and restores the text format.
func (c *Cache) readStateV2(br *bufio.Reader) error {
	lineNo := 1
	header, err := br.ReadString('\n')
	if err != nil && header == "" {
		return stateError(lineNo, "reading header: %v", err)
	}
	// The version is checked first, so a file of another format version
	// gets the actionable "unsupported version" error; the header must
	// then hold exactly three fields, so no junk hides on the one line
	// that authenticates the rest.
	header = strings.TrimSpace(header)
	hfields := strings.Fields(header)
	if len(hfields) < 2 || hfields[0] != "gcstate" {
		return stateError(lineNo, "bad header %q", header)
	}
	version, err := strconv.Atoi(hfields[1])
	if err != nil {
		return stateError(lineNo, "bad header %q", header)
	}
	if version != stateVersionText {
		return stateError(lineNo, "unsupported state version %d (want %d)", version, stateVersionText)
	}
	if len(hfields) != 3 {
		return stateError(lineNo, "bad header %q: want 3 fields, got %d", header, len(hfields))
	}
	entryCount, err := strconv.Atoi(hfields[2])
	if err != nil {
		return stateError(lineNo, "bad header %q", header)
	}
	if entryCount < 0 {
		return stateError(lineNo, "negative entry count %d", entryCount)
	}

	type pending struct {
		rec             entryRecord
		vertices, edges int // the graph's declared |V| and |E|
		entryLine       int // line number of the entry line; the graph starts on the next
		graphText       strings.Builder
	}
	var items []*pending
	var cur *pending
	sawEnd := false
parse:
	for {
		line, err := br.ReadString('\n')
		if line == "" && err != nil {
			if err == io.EOF {
				break
			}
			return stateError(lineNo+1, "reading state: %v", err)
		}
		lineNo++
		trimmed := strings.TrimSpace(line)
		fields := strings.Fields(trimmed)
		switch {
		case len(fields) == 1 && fields[0] == "end":
			sawEnd = true
			break parse
		case len(fields) > 0 && fields[0] == "entry":
			if len(fields) != 8 {
				return stateError(lineNo, "bad entry line %q: want 8 fields, got %d", trimmed, len(fields))
			}
			cur = &pending{entryLine: lineNo}
			var err1, err2, err3, err4, err5, err6, err7 error
			cur.rec.qt, err1 = strconv.ParseInt(fields[1], 10, 64)
			cur.vertices, err2 = strconv.Atoi(fields[2])
			cur.edges, err3 = strconv.Atoi(fields[3])
			cur.rec.baseCandidates, err4 = strconv.ParseInt(fields[4], 10, 64)
			cur.rec.hits, err5 = strconv.ParseInt(fields[5], 10, 64)
			cur.rec.savedTests, err6 = strconv.ParseFloat(fields[6], 64)
			cur.rec.savedCost, err7 = strconv.ParseFloat(fields[7], 64)
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil || err6 != nil || err7 != nil {
				return stateError(lineNo, "bad entry line %q", trimmed)
			}
			if err := cur.rec.check(); err != nil {
				return stateError(lineNo, "%v", err)
			}
			if cur.vertices <= 0 || cur.edges < 0 {
				return stateError(lineNo, "implausible graph size %d/%d", cur.vertices, cur.edges)
			}
			items = append(items, cur)
		default:
			if cur == nil {
				return stateError(lineNo, "graph text before entry line: %q", trimmed)
			}
			cur.graphText.WriteString(line)
		}
		if err == io.EOF {
			break
		}
	}
	if !sawEnd {
		return stateError(lineNo, "state truncated: missing end trailer")
	}
	if len(items) != entryCount {
		return stateError(lineNo, "state truncated: header declares %d entries, found %d", entryCount, len(items))
	}

	recs := make([]entryRecord, len(items))
	for i, it := range items {
		if err := it.rec.parseGraph(strings.NewReader(it.graphText.String())); err != nil {
			return stateError(it.entryLine+1, "entry %v", err)
		}
		if g := it.rec.g; g.N() != it.vertices || g.M() != it.edges {
			return stateError(it.entryLine+1,
				"entry graph truncated: declared %d vertices / %d edges, parsed %d/%d",
				it.vertices, it.edges, g.N(), g.M())
		}
		recs[i] = it.rec
	}
	c.restore(recs)
	return nil
}

// replaceEntries installs entries as the cache's entire content — the
// last step of every restore. Stop-the-world under mu, so no
// admission interleaves, the pending window is cleared, and queries see
// the old view until the new one is published.
func (c *Cache) replaceEntries(entries []*Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The resident list is dropped whole, bypassing evictLocked: reset the
	// residency account to match before insertLocked re-adds the restored
	// entries (a warm-cache restore would otherwise double-count forever).
	c.entries = nil
	c.res.entries.Store(0)
	c.res.bytes.Store(0)
	c.window = c.window[:0]
	tick := c.tick.Load()
	for _, e := range entries {
		e.ID = c.nextID
		c.nextID++
		e.InsertedAt = tick
		e.LastUsed = tick
		c.insertLocked(e)
	}
	c.enforceLimitsLocked()
	c.republishLocked()
}
