package core

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
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

// readStateV2 parses and restores the v2 text format.
func (c *Cache) readStateV2(br *bufio.Reader) error {
	view := c.method.View()
	lineNo := 1
	header, err := br.ReadString('\n')
	if err != nil && header == "" {
		return stateError(lineNo, "reading header: %v", err)
	}
	// The version is checked on its own first, so a file written by a
	// different format version gets the actionable "unsupported version"
	// error rather than a generic header complaint (v1 headers have fewer
	// fields and would fail the full field-count check outright). The
	// header must then consist of EXACTLY the five expected fields —
	// fmt.Sscanf would silently accept trailing junk after the entry
	// count, hiding corruption on the one line that authenticates the
	// rest of the stream.
	hfields := strings.Fields(strings.TrimSpace(header))
	if len(hfields) < 2 || hfields[0] != "gcstate" {
		return stateError(lineNo, "bad header %q", strings.TrimSpace(header))
	}
	version, err := strconv.Atoi(hfields[1])
	if err != nil {
		return stateError(lineNo, "bad header %q", strings.TrimSpace(header))
	}
	if version != stateVersionV2 {
		return stateError(lineNo, "unsupported state version %d (want %d)", version, stateVersionV2)
	}
	if len(hfields) != 5 {
		return stateError(lineNo, "bad header %q: want 5 fields, got %d", strings.TrimSpace(header), len(hfields))
	}
	dsSize, err1 := strconv.Atoi(hfields[2])
	digest, err2 := strconv.ParseUint(hfields[3], 16, 64)
	entryCount, err3 := strconv.Atoi(hfields[4])
	if err1 != nil || err2 != nil || err3 != nil || dsSize < 0 {
		return stateError(lineNo, "bad header %q", strings.TrimSpace(header))
	}
	if err := checkDataset(view, uint64(dsSize), digest); err != nil {
		return stateError(lineNo, "%v", err)
	}
	if entryCount < 0 {
		return stateError(lineNo, "negative entry count %d", entryCount)
	}

	type pending struct {
		qt             ftv.QueryType
		vertices       int
		edges          int
		baseCandidates int
		hits           int64
		savedTests     float64
		savedCost      float64
		answers        []int
		hasAnswers     bool // exactly one answers line per entry
		entryLine      int  // line number of the entry line
		graphStart     int  // line number where the graph text begins
		graphText      strings.Builder
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
			cur = &pending{entryLine: lineNo, graphStart: lineNo + 2} // graph follows the answers line
			qt, err1 := strconv.Atoi(fields[1])
			n, err2 := strconv.Atoi(fields[2])
			m, err3 := strconv.Atoi(fields[3])
			bc, err4 := strconv.Atoi(fields[4])
			hits, err5 := strconv.ParseInt(fields[5], 10, 64)
			st, err6 := strconv.ParseFloat(fields[6], 64)
			sc, err7 := strconv.ParseFloat(fields[7], 64)
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil || err6 != nil || err7 != nil {
				return stateError(lineNo, "bad entry line %q", trimmed)
			}
			if qt != int(ftv.Subgraph) && qt != int(ftv.Supergraph) {
				return stateError(lineNo, "unknown query type %d", qt)
			}
			if n <= 0 || m < 0 {
				return stateError(lineNo, "implausible graph size %d/%d", n, m)
			}
			cur.qt = ftv.QueryType(qt)
			cur.vertices = n
			cur.edges = m
			cur.baseCandidates = bc
			cur.hits = hits
			cur.savedTests = st
			cur.savedCost = sc
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
			// Ids must be strictly increasing: the writer emits sorted
			// Indices(), so any duplicate or out-of-order id is corruption.
			// Without this check a duplicated id ("answers 2 5 5") passes
			// the declared count yet silently collapses to one bit in
			// FromIndices below.
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
		gs, err := graph.ReadAll(strings.NewReader(it.graphText.String()))
		if err != nil {
			return stateError(it.graphStart, "entry graph: %v", err)
		}
		if len(gs) != 1 {
			return stateError(it.graphStart, "entry graph: want one graph, got %d", len(gs))
		}
		if gs[0].N() != it.vertices || gs[0].M() != it.edges {
			return stateError(it.graphStart,
				"entry graph truncated: declared %d vertices / %d edges, parsed %d/%d",
				it.vertices, it.edges, gs[0].N(), gs[0].M())
		}
		answers := bitset.FromIndices(dsSize, it.answers)
		// The digest matched, so the live ids are the writer's; a set that
		// names a tombstoned id anyway is masked, never served.
		answers.And(view.Live())
		e := newEntry(gs[0], it.qt, answers, view, it.baseCandidates, gs[0].WLFingerprint(3), summaryOn(view, gs[0]), 0)
		e.Hits = it.hits
		e.SavedTests = it.savedTests
		e.SavedCostNs = it.savedCost
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
