package core

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"graphcache/internal/bitset"
	"graphcache/internal/ftv"
	"graphcache/internal/graph"
)

// Cache state persistence: a warm cache is the product of an expensive
// query history, so a production deployment wants to survive restarts.
// WriteState serializes the admitted entries (pending window entries are
// deliberately excluded — they have not passed admission control);
// ReadState restores them into a cache built over the SAME dataset, since
// answer sets are stored as dataset positions.
//
// Two formats exist. WriteState writes the current binary v3 format
// ("GCS3", persist_v3.go): fixed header, fixed-size per-entry index
// records, checksummed variable bodies holding each graph plus its
// answer set in the set's native container encoding. WriteStateV2 keeps
// the line-oriented text format below; ReadState sniffs the leading magic
// and accepts either, so v2 files keep restoring.
//
// Format v2 (line-oriented, versioned):
//
//	gcstate 2 <dataset-size> <dataset-digest, hex> <entry-count>
//	entry <type> <vertices> <edges> <baseCandidates> <hits> <savedTests> <savedCostNs>
//	answers <count> <id> <id> ...
//	<graph in the text codec>
//	...
//	end
//
// Version 2 makes corruption detectable everywhere a version-1 file could
// be silently truncated: the header carries the entry count, each entry
// line carries the graph's vertex/edge counts (validated against the
// parsed graph), each answers line carries its id count (ids must be
// strictly increasing — the writer emits sorted Indices(), so any other
// order is corruption), and the stream must close with an "end" trailer.
// Recency/insertion ticks are reset on load (the new process has its own
// clock); utility counters survive. Feature vectors, fingerprints and the
// hit index are rebuilt from the parsed graphs, never trusted from disk.

const stateVersionV2 = 2

// WriteStateV2 serializes the cache's admitted entries to w in the
// legacy text format. The state is formatted in memory over one pinned
// dataset view (the recorded answer ids must belong to one dataset
// snapshot) under mu (the resident list and the utility fields it
// records are mutated under it), so it is one consistent snapshot even
// under concurrent queries and mutations (snapshotState); w is written
// only after mu is released, so a slow writer stalls no query.
func (c *Cache) WriteStateV2(w io.Writer) error {
	var buf bytes.Buffer
	err := c.snapshotState(func(view ftv.DatasetView, entries []*Entry, sets []*bitset.Set) error {
		fmt.Fprintf(&buf, "gcstate %d %d %016x %d\n", stateVersionV2, view.Size(), view.Digest(), len(entries))
		for i, e := range entries {
			fmt.Fprintf(&buf, "entry %d %d %d %d %d %g %g\n",
				e.Type, e.Graph.N(), e.Graph.M(), e.BaseCandidates, e.Hits, e.SavedTests, e.SavedCostNs)
			ids := sets[i].Indices()
			fmt.Fprintf(&buf, "answers %d", len(ids))
			for _, id := range ids {
				fmt.Fprintf(&buf, " %d", id)
			}
			buf.WriteByte('\n')
			if err := graph.WriteGraph(&buf, e.Graph); err != nil {
				return err
			}
		}
		buf.WriteString("end\n")
		return nil
	})
	if err != nil {
		return err
	}
	_, err = buf.WriteTo(w)
	return err
}

// snapshotState calls format under mu with the resident entries paired
// with their answer sets, all exact for one dataset view, and returns
// its error. The pending exact-hit credits are folded before format
// runs, so the utilities it records include every completed hit. Each
// attempt pins the newest view and brings the entries forward to it
// before mu is taken (reconcileResident), so its containment tests block
// no miss. An entry that a newer reader brought past the view meanwhile
// has no set exact for it: the attempt is dropped and repeated on a
// newer view, so no entry is left out. A retry needs a mutation that
// landed during the attempt before it.
func (c *Cache) snapshotState(format func(view ftv.DatasetView, entries []*Entry, sets []*bitset.Set) error) error {
	for {
		if done, err := c.trySnapshot(format); done {
			return err
		}
	}
}

// trySnapshot is one attempt of snapshotState. It reports false, without
// calling format, when some entry is ahead of the view it pinned.
func (c *Cache) trySnapshot(format func(view ftv.DatasetView, entries []*Entry, sets []*bitset.Set) error) (bool, error) {
	view := c.method.View()
	c.reconcileResident(view)
	c.mu.Lock()
	defer c.mu.Unlock()
	sets := make([]*bitset.Set, len(c.entries))
	for i, e := range c.entries {
		if sets[i] = c.answersFor(e, view); sets[i] == nil {
			return false, nil
		}
	}
	c.foldCreditsLocked(c.entries)
	return true, format(view, c.entries, sets)
}

// stateError builds a line-numbered restore error.
func stateError(line int, format string, args ...any) error {
	return fmt.Errorf("core: state line %d: %s", line, fmt.Sprintf(format, args...))
}

// ReadState restores entries serialized by WriteState (binary v3) or
// WriteStateV2 (text) into the cache, replacing its current contents; the
// leading magic selects the parser. The cache's dataset size and digest
// (ftv.DatasetView.Digest) must match the recorded ones: answer sets are
// dataset positions, so a snapshot is exact only over the very graphs,
// at the very live ids, it was written on. A different dataset of the
// same size is refused, and so is the saving process's base dataset once
// that process had removed or added graphs.
//
// Restores are all-or-nothing: the entire stream is parsed and validated —
// entry counts, per-graph vertex/edge counts, answer-id ranges and
// ordering, checksums and section bounds in v3, the end trailer in v2 —
// before mu is taken to install the entries, so a truncated or corrupt
// state file fails with a descriptive error and leaves the cache exactly
// as it was (empty, when the load happens at boot). One dataset view is
// pinned through the whole parse: the answer ids refer to it, and the
// restored sets are exact for it, so a mutation landing meanwhile
// is brought in by the entries' next readers. On success the feature
// index is rebuilt before mu drops.
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

// checkDataset refuses a snapshot recorded over another dataset than the
// view's: both formats give this one error for a size or a digest that
// differs.
func checkDataset(view ftv.DatasetView, size, digest uint64) error {
	if size != uint64(view.Size()) || digest != view.Digest() {
		return fmt.Errorf("state is for a %d-graph dataset with digest %016x, cache has %d graphs with digest %016x",
			size, digest, view.Size(), view.Digest())
	}
	return nil
}

// entryRecord holds what a format records of an entry besides its graph and answers.
type entryRecord struct {
	qt             int64
	baseCandidates int64
	hits           int64
	savedTests     float64
	savedCost      float64
}

// check refuses the record values no writer produces, each of which would
// skew saved-test counts or policy ranks: an unknown query type, negative
// hits, base candidates outside [0, size] (|C_M| ≤ the id space, which
// only grows), a NaN, infinite or negative utility.
func (r entryRecord) check(size int) error {
	switch {
	case r.qt != int64(ftv.Subgraph) && r.qt != int64(ftv.Supergraph):
		return fmt.Errorf("unknown query type %d", r.qt)
	case r.hits < 0:
		return fmt.Errorf("negative hit count %d", r.hits)
	case r.baseCandidates < 0 || r.baseCandidates > int64(size):
		return fmt.Errorf("base candidates %d outside [0,%d]", r.baseCandidates, size)
	case !(r.savedTests >= 0 && r.savedCost >= 0) || math.IsInf(r.savedTests, 1) || math.IsInf(r.savedCost, 1):
		return fmt.Errorf("implausible utility %g/%g", r.savedTests, r.savedCost)
	}
	return nil
}

// restoreEntry is the per-entry tail both formats share: parse the one
// graph, mask answers to the live ids, rebuild fingerprint and summary on
// the view (never trusted from disk), build the entry with r's utilities.
func restoreEntry(view ftv.DatasetView, r entryRecord, graphText io.Reader, answers *bitset.Set) (*Entry, error) {
	gs, err := graph.ReadAll(graphText)
	if err != nil {
		return nil, fmt.Errorf("graph: %v", err)
	}
	if len(gs) != 1 {
		return nil, fmt.Errorf("graph: want one graph, got %d", len(gs))
	}
	// The digest matched, so the live ids are the writer's; a set that
	// names a tombstoned id anyway is masked, never served.
	answers.And(view.Live())
	g := gs[0]
	e := newEntry(g, ftv.QueryType(r.qt), answers, view, int(r.baseCandidates), g.WLFingerprint(3), summaryOn(view, g), 0)
	e.Hits, e.SavedTests, e.SavedCostNs = r.hits, r.savedTests, r.savedCost
	return e, nil
}

// readStateV2 parses and restores the v2 text format.
func (c *Cache) readStateV2(br *bufio.Reader) error {
	view := c.method.View()
	lineNo := 1
	header, err := br.ReadString('\n')
	if err != nil && header == "" {
		return stateError(lineNo, "reading header: %v", err)
	}
	// The version is checked first, so a file of another format version
	// (v1 headers have fewer fields) gets the actionable "unsupported
	// version" error; the header must then hold exactly five fields, so no
	// junk hides on the one line that authenticates the rest.
	header = strings.TrimSpace(header)
	hfields := strings.Fields(header)
	if len(hfields) < 2 || hfields[0] != "gcstate" {
		return stateError(lineNo, "bad header %q", header)
	}
	version, err := strconv.Atoi(hfields[1])
	if err != nil {
		return stateError(lineNo, "bad header %q", header)
	}
	if version != stateVersionV2 {
		return stateError(lineNo, "unsupported state version %d (want %d)", version, stateVersionV2)
	}
	if len(hfields) != 5 {
		return stateError(lineNo, "bad header %q: want 5 fields, got %d", header, len(hfields))
	}
	dsSize, err1 := strconv.Atoi(hfields[2])
	digest, err2 := strconv.ParseUint(hfields[3], 16, 64)
	entryCount, err3 := strconv.Atoi(hfields[4])
	if err1 != nil || err2 != nil || err3 != nil || dsSize < 0 {
		return stateError(lineNo, "bad header %q", header)
	}
	if err := checkDataset(view, uint64(dsSize), digest); err != nil {
		return stateError(lineNo, "%v", err)
	}
	if entryCount < 0 {
		return stateError(lineNo, "negative entry count %d", entryCount)
	}

	type pending struct {
		rec             entryRecord
		vertices, edges int // the graph's declared |V| and |E|
		answers         []int
		hasAnswers      bool // exactly one answers line per entry
		entryLine       int  // line number of the entry line; the graph starts two lines on
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
			if err := cur.rec.check(dsSize); err != nil {
				return stateError(lineNo, "%v", err)
			}
			if cur.vertices <= 0 || cur.edges < 0 {
				return stateError(lineNo, "implausible graph size %d/%d", cur.vertices, cur.edges)
			}
			items = append(items, cur)
		case len(fields) > 0 && fields[0] == "answers":
			if cur == nil {
				return stateError(lineNo, "answers line before entry line")
			}
			if cur.hasAnswers {
				return stateError(lineNo, "duplicate answers line for one entry")
			}
			cur.hasAnswers = true
			if len(fields) < 2 {
				return stateError(lineNo, "answers line without count")
			}
			count, err := strconv.Atoi(fields[1])
			if err != nil || count < 0 {
				return stateError(lineNo, "bad answers count %q", fields[1])
			}
			if got := len(fields) - 2; got != count {
				return stateError(lineNo, "answers line truncated: declared %d ids, found %d", count, got)
			}
			// Ids must be strictly increasing, as the writer emits them: a
			// duplicated id ("answers 2 5 5") would pass the declared count
			// and collapse to one bit in FromIndices.
			prev := -1
			for _, f := range fields[2:] {
				id, err := strconv.Atoi(f)
				if err != nil || id < 0 || id >= dsSize {
					return stateError(lineNo, "bad answer id %q", f)
				}
				if id <= prev {
					return stateError(lineNo, "answer ids not strictly increasing at %q", f)
				}
				prev = id
				cur.answers = append(cur.answers, id)
			}
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

	entries := make([]*Entry, 0, len(items))
	for _, it := range items {
		if !it.hasAnswers {
			return stateError(it.entryLine, "entry has no answers line")
		}
		e, err := restoreEntry(view, it.rec, strings.NewReader(it.graphText.String()), bitset.FromIndices(dsSize, it.answers))
		if err != nil {
			return stateError(it.entryLine+2, "entry %v", err)
		}
		if e.Graph.N() != it.vertices || e.Graph.M() != it.edges {
			return stateError(it.entryLine+2,
				"entry graph truncated: declared %d vertices / %d edges, parsed %d/%d",
				it.vertices, it.edges, e.Graph.N(), e.Graph.M())
		}
		entries = append(entries, e)
	}

	c.replaceEntries(entries)
	return nil
}

// replaceEntries installs entries as the cache's entire content — the
// shared commit phase of every restore. Stop-the-world under mu, so no
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
