package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
)

func TestStateRoundTrip(t *testing.T) {
	dataset := testDataset(71, 25)
	method := ftv.NewGGSXMethod(dataset, 3)
	cfg := DefaultConfig()
	cfg.Window = 2
	src, err := New(method, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	var queries []gen.Query
	for i := 0; i < 12; i++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[i%len(dataset)], 3+i%5)
		queries = append(queries, gen.Query{G: q, Type: ftv.Subgraph})
		if _, err := src.Execute(q, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
	if src.Len() == 0 {
		t.Fatal("no admitted entries to persist")
	}

	var buf bytes.Buffer
	if err := src.WriteState(&buf); err != nil {
		t.Fatal(err)
	}

	dst, err := New(method, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ReadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != src.Len() {
		t.Fatalf("restored %d entries, want %d", dst.Len(), src.Len())
	}

	// Every admitted query must now exact-hit on the restored cache with
	// identical answers.
	srcEntries := src.Entries()
	for _, e := range srcEntries {
		res, err := dst.Execute(e.Graph, e.Type)
		if err != nil {
			t.Fatal(err)
		}
		if !res.ExactHit {
			t.Fatalf("restored cache missed entry %d", e.ID)
		}
		if !res.Answers.Equal(e.Answers()) {
			t.Fatalf("restored answers differ for entry %d", e.ID)
		}
	}
	// Utility counters survive the round trip: every restored entry's hit
	// count is at least its persisted value (the exact-hit loop above only
	// adds).
	for _, d := range dst.Entries() {
		for _, s := range srcEntries {
			if s.Fingerprint == d.Fingerprint && d.Hits < s.Hits {
				t.Fatalf("entry hit counter shrank through persistence: %d < %d", d.Hits, s.Hits)
			}
		}
	}
}

func TestStateRejectsGarbage(t *testing.T) {
	dataset := testDataset(75, 5)
	c, err := New(ftv.NewGGSXMethod(dataset, 2), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ in, want string }{
		{"", "reading header"},
		{"not a header\n", "bad header"},
		{"gcstate 99 5\n", "unsupported state version 99"},
		{"gcstate 1 5\nanswers 1 2\n", "unsupported state version 1"}, // version-1 states are refused
		{"gcstate 1 5\nentry 0 1 0 0 0\nanswers 900\n", "unsupported state version 1"},
		{"gcstate 1 5\nentry 0 x 0 0 0\n", "unsupported state version 1"},
		// Version 2 recorded answers and named its dataset by size and digest.
		{"gcstate 2 5 0123456789abcdef 1\nentry 0 2 1 0 0 0 0\nanswers 1 3\n", "unsupported state version 2"},
		{"gcstate 3 5 1\nend\n", "want 3 fields, got 4"},
		{"gcstate 3 0\n", "missing end trailer"},
		{"gcstate 3 1\nend\n", "header declares 1 entries, found 0"},
		{"gcstate 3 1\nentry 9 2 1 0 0 0 0\n", "unknown query type 9"},
		{"gcstate 3 1\nentry 0 2 1 0 0 0 0\nanswers 2 1\nend\n", "entry graph"},
	}
	for i, tc := range cases {
		err := c.ReadState(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: want an error containing %q, got %v", i, tc.want, err)
		}
		if c.Len() != 0 {
			t.Fatalf("case %d: failed restore left %d entries behind", i, c.Len())
		}
	}

	// Old-format files must get the actionable version diagnostic, not a
	// generic header complaint.
	err = c.ReadState(strings.NewReader("gcstate 1 5\nentry 0 1 0 0 0\n"))
	if err == nil || !strings.Contains(err.Error(), "unsupported state version 1") {
		t.Errorf("version-1 state: want version error, got %v", err)
	}
}

// validState builds a warm cache and returns its serialized state along
// with the cache (for content comparisons).
func validState(t *testing.T, seed int64) (string, *Cache) {
	t.Helper()
	dataset := testDataset(seed, 20)
	method := ftv.NewGGSXMethod(dataset, 3)
	cfg := DefaultConfig()
	cfg.Window = 2
	c, err := New(method, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < 10; i++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[i%len(dataset)], 3+i%4)
		if _, err := c.Execute(q, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() < 3 {
		t.Fatalf("only %d admitted entries; corruption sweep needs more", c.Len())
	}
	var buf bytes.Buffer
	if err := c.WriteStateV2(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), c
}

// Every proper prefix of a valid state — cut at line boundaries and at
// arbitrary byte offsets — must be rejected with a line-numbered error and
// leave the cache empty, never partially populated.
func TestStateTruncationRejectedEverywhere(t *testing.T) {
	state, src := validState(t, 81)
	method := src.Method()
	fresh := func() *Cache {
		cfg := DefaultConfig()
		cfg.Window = 2
		return MustNew(method, cfg)
	}

	var cuts []int
	for i, ch := range state {
		if ch == '\n' {
			cuts = append(cuts, i, i+1) // just before and just after each newline
		}
	}
	for off := 0; off < len(state); off += 37 { // arbitrary mid-line offsets
		cuts = append(cuts, off)
	}
	full := strings.TrimSuffix(state, "\n")
	for _, cut := range cuts {
		if cut >= len(state) {
			continue
		}
		if state[:cut] == full {
			continue // only the final newline is missing: content is complete
		}
		c := fresh()
		err := c.ReadState(strings.NewReader(state[:cut]))
		if err == nil {
			t.Fatalf("truncation at byte %d/%d accepted:\n%q", cut, len(state), tail(state[:cut]))
		}
		if !strings.Contains(err.Error(), "line") {
			t.Errorf("truncation at byte %d: error lacks a line number: %v", cut, err)
		}
		if c.Len() != 0 || c.WindowLen() != 0 {
			t.Fatalf("truncation at byte %d: cache partially populated (%d entries)", cut, c.Len())
		}
	}
	// The full state still loads.
	c := fresh()
	if err := c.ReadState(strings.NewReader(state)); err != nil {
		t.Fatalf("uncorrupted state rejected: %v", err)
	}
	if c.Len() != src.Len() {
		t.Fatalf("restored %d entries, want %d", c.Len(), src.Len())
	}
}

// tail returns the last ~2 lines of s for failure messages.
func tail(s string) string {
	if len(s) > 80 {
		s = s[len(s)-80:]
	}
	return s
}

// Field-level corruption — flipped digits, wrong counts, a version-2
// answers line — must be rejected with the offending line identified.
func TestStateFieldCorruptionRejected(t *testing.T) {
	state, _ := validState(t, 83)
	lines := strings.SplitAfter(state, "\n")
	corrupt := func(mutate func([]string) bool) string {
		ls := append([]string(nil), lines...)
		if !mutate(ls) {
			return ""
		}
		return strings.Join(ls, "")
	}
	mutations := map[string]func([]string) bool{
		"entry-vertex-count": func(ls []string) bool {
			for i, l := range ls {
				if strings.HasPrefix(l, "entry ") {
					f := strings.Fields(l)
					f[2] = "99" // declared vertices no longer match the graph
					ls[i] = strings.Join(f, " ") + "\n"
					return true
				}
			}
			return false
		},
		"header-entry-count": func(ls []string) bool {
			f := strings.Fields(ls[0])
			f[2] = "99" // only the count is wrong
			ls[0] = strings.Join(f, " ") + "\n"
			return true
		},
		"dropped-graph-line": func(ls []string) bool {
			for i, l := range ls {
				if strings.HasPrefix(l, "v ") {
					ls[i] = ""
					return true
				}
			}
			return false
		},
		"stray-answers-line": func(ls []string) bool {
			for i, l := range ls {
				if strings.HasPrefix(l, "entry ") {
					ls[i] = l + "answers 1 0\n" // what version 2 wrote there
					return true
				}
			}
			return false
		},
		"dropped-edge-line": func(ls []string) bool {
			for i, l := range ls {
				if strings.HasPrefix(l, "e ") {
					ls[i] = ""
					return true
				}
			}
			return false
		},
	}
	// The error each mutation must meet: the check written for it, not
	// the header check every case passes.
	wantErr := map[string]string{
		"entry-vertex-count": "declared 99 vertices",
		"header-entry-count": "header declares 99 entries",
		"dropped-graph-line": "entry graph",
		"stray-answers-line": "entry graph",
		"dropped-edge-line":  "entry graph truncated",
	}
	method := ftv.NewGGSXMethod(testDataset(83, 20), 3)
	for name, mutate := range mutations {
		in := corrupt(mutate)
		if in == "" {
			t.Fatalf("%s: mutation found nothing to corrupt", name)
		}
		c := MustNew(method, DefaultConfig())
		err := c.ReadState(strings.NewReader(in))
		if err == nil {
			t.Errorf("%s: corrupt state accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "line") {
			t.Errorf("%s: error lacks a line number: %v", name, err)
		}
		if want, ok := wantErr[name]; !ok || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: want an error containing %q, got %v", name, want, err)
		}
		if c.Len() != 0 {
			t.Errorf("%s: failed restore left %d entries behind", name, c.Len())
		}
	}
}

// A record value no writer produces — a negative base candidate count, a
// negative hit count, a NaN, infinite or negative utility — must be
// refused by both formats, with the record's own
// error, and leave the cache empty. The first entry of a valid snapshot
// is edited: in v2 a field of its entry line, in GCS3 a field of its
// index record under recomputed index and header checksums, so only the
// record check can refuse it.
func TestRestoreRefusesUnwrittenRecordValues(t *testing.T) {
	src, _ := warmCache(t, 907)
	method := src.Method()
	states := bothFormats(t, src)
	cases := []struct {
		name    string
		v2Field int // field of the v2 entry line
		v2Value string
		v3Off   int // offset in the GCS3 index record; -1 when GCS3 cannot spell it
		v3Bits  uint64
		want    string
	}{
		{"negative-base-candidates", 4, "-7", -1, 0, "negative base candidates -7"},
		{"negative-hits", 5, "-3", 16, uint64(math.MaxUint64 - 2), "negative hit count -3"},
		{"nan-saved-tests", 6, "NaN", 24, math.Float64bits(math.NaN()), "implausible utility NaN/"},
		{"inf-saved-tests", 6, "+Inf", 24, math.Float64bits(math.Inf(1)), "implausible utility +Inf/"},
		{"negative-saved-tests", 6, "-1", 24, math.Float64bits(-1), "implausible utility -1/"},
		{"minus-inf-saved-cost", 7, "-Inf", 32, math.Float64bits(math.Inf(-1)), "/-Inf"},
		{"nan-saved-cost", 7, "NaN", 32, math.Float64bits(math.NaN()), "/NaN"},
	}
	prefix := map[string]string{"v2": "core: state line ", "gcs3": "core: state v3: entry 0: "}
	restore := func(raw []byte) (*Cache, error) {
		c := MustNew(method, DefaultConfig())
		return c, c.ReadState(bytes.NewReader(raw))
	}
	for format, raw := range states {
		if _, err := restore(raw); err != nil {
			t.Fatalf("%s: unedited snapshot refused: %v", format, err)
		}
	}
	for _, tc := range cases {
		lines := strings.SplitAfter(string(states["v2"]), "\n")
		for i, l := range lines {
			if f := strings.Fields(l); len(f) == 8 && f[0] == "entry" {
				f[tc.v2Field] = tc.v2Value
				lines[i] = strings.Join(f, " ") + "\n"
				break
			}
		}
		edited := map[string][]byte{"v2": []byte(strings.Join(lines, ""))}
		if tc.v3Off >= 0 {
			raw := bytes.Clone(states["gcs3"])
			binary.LittleEndian.PutUint64(raw[v3HeaderLen+tc.v3Off:], tc.v3Bits)
			bodyOff := binary.LittleEndian.Uint64(raw[16:])
			binary.LittleEndian.PutUint64(raw[32:], fnv1a(raw[v3HeaderLen:bodyOff]))
			binary.LittleEndian.PutUint64(raw[40:], fnv1a(raw[:40]))
			edited["gcs3"] = raw
		}
		for format, raw := range edited {
			c, err := restore(raw)
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), prefix[format]) {
				t.Errorf("%s %s: ReadState returned %v, want %q after %q", format, tc.name, err, tc.want, prefix[format])
			}
			if c.Len() != 0 {
				t.Errorf("%s %s: refused restore left %d entries", format, tc.name, c.Len())
			}
		}
	}
}

// A failed restore into a WARM cache must leave its previous contents
// untouched (all-or-nothing semantics).
func TestStateFailedRestoreLeavesWarmCacheIntact(t *testing.T) {
	state, warm := validState(t, 85)
	before := warm.Len()
	if before == 0 {
		t.Fatal("warm cache empty")
	}
	if err := warm.ReadState(strings.NewReader(state[:len(state)/2])); err == nil {
		t.Fatal("truncated state accepted")
	}
	if warm.Len() != before {
		t.Fatalf("failed restore changed the cache: %d entries, had %d", warm.Len(), before)
	}
	// The index still mirrors the surviving contents.
	if indexed := len(warm.published.Load().all); indexed != before {
		t.Fatalf("index has %d entries after failed restore, cache %d", indexed, before)
	}
}

func TestStateCapacityEnforcedOnLoad(t *testing.T) {
	dataset := testDataset(76, 20)
	method := ftv.NewGGSXMethod(dataset, 3)
	bigCfg := DefaultConfig()
	bigCfg.Capacity = 50
	bigCfg.Window = 1
	big, err := New(method, bigCfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 10; i++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[i%len(dataset)], 3+i%4)
		if _, err := big.Execute(q, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := big.WriteState(&buf); err != nil {
		t.Fatal(err)
	}

	smallCfg := DefaultConfig()
	smallCfg.Capacity = 3
	small, err := New(method, smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := small.ReadState(&buf); err != nil {
		t.Fatal(err)
	}
	if small.Len() > 3 {
		t.Errorf("restored cache exceeds capacity: %d", small.Len())
	}
}

func TestStateDirectedEntries(t *testing.T) {
	dataset := circuitDataset(78, 15)
	method := ftv.NewGGSXMethod(dataset, 2)
	cfg := DefaultConfig()
	cfg.Window = 1
	c, err := New(method, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(79))
	q := gen.ExtractConnectedSubgraph(rng, dataset[0], 4)
	if _, err := c.Execute(q, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := New(method, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ReadState(&buf); err != nil {
		t.Fatal(err)
	}
	res, err := restored.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ExactHit {
		t.Error("directed entry lost through persistence")
	}
}
