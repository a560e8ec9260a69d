package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

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
	for i := 0; i < 12; i++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[i%len(dataset)], 3+i%5)
		if _, err := src.Execute(q, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
		// Every third query is also issued as a supergraph query, on the
		// molecule it was cut from, which holds at least itself: an
		// extracted pattern holds no molecule, so its supergraph answers,
		// and a restore's, would be empty.
		if i%3 == 0 {
			g := dataset[i%len(dataset)]
			if _, err := src.Execute(g, ftv.Supergraph); err != nil {
				t.Fatal(err)
			}
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
	// A restore runs no query: it moves no Monitor counter and writes no
	// cost cell.
	if st := dst.Stats(); st != (Snapshot{}) {
		t.Fatalf("restore moved Monitor counters: %+v", st)
	}
	if dst.costs.dir.Load() != nil || dst.globalVal.Load() != 0 {
		t.Fatal("restore wrote a cost cell")
	}

	// Each restored entry rebuilds its source's row, vector and answers,
	// field for field: the row's packed bytes, bloom, top node and
	// watermark.
	srcEntries := src.Entries()
	var supers int
	for i, d := range dst.Entries() {
		s := srcEntries[i]
		if d.Fingerprint != s.Fingerprint || d.Type != s.Type {
			t.Fatalf("restored entry %d is not source entry %d", d.ID, s.ID)
		}
		if !reflect.DeepEqual(d.row, s.row) || !reflect.DeepEqual(d.FV, s.FV) || !reflect.DeepEqual(d.Answers(), s.Answers()) {
			t.Fatalf("restored entry %d differs from source entry %d: row %+v, want %+v", d.ID, s.ID, d.row, s.row)
		}
		if d.Type == ftv.Supergraph && !d.Answers().Empty() {
			supers++
		}
	}
	if supers == 0 {
		t.Fatal("no supergraph entry with answers restored")
	}

	// Every admitted query must now exact-hit on the restored cache with
	// identical answers.
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

// Inputs that are no snapshot, or one of a version this build does not
// read, are each refused with their own error and leave the cache empty.
// A text state of the retired format is refused by its magic. The
// version rows claim their version under a valid header checksum
// (withVersion), so only the version check can refuse them; versions 3
// to 5 carried answer sets (3 possibly in the bitset run container), and
// their rows edit a warm snapshot.
func TestStateRejectsGarbage(t *testing.T) {
	c := MustNew(ftv.NewGGSXMethod(testDataset(75, 5), 2), DefaultConfig())
	empty := snapshotOf(t, c)
	src, _ := warmCache(t, 805)
	warm := snapshotOf(t, src)
	wrongMagic := bytes.Clone(empty)
	copy(wrongMagic, "GCS4")
	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"empty", nil, "header truncated: 0 of 48 bytes"},
		{"3-bytes", []byte("GCS"), "header truncated: 3 of 48 bytes"},
		{"text-header", []byte("gcstate 3 0\nend\n"), `bad magic "gcst"`},
		{"wrong-magic", wrongMagic, `bad magic "GCS4"`},
		{"version-3", withVersion(warm, 3), "unsupported state version 3 (want 6)"},
		{"version-4", withVersion(warm, 4), "unsupported state version 4 (want 6)"},
		{"version-99", withVersion(empty, 99), "unsupported state version 99 (want 6)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := c.ReadState(bytes.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("want an error containing %q, got %v", tc.want, err)
			}
			if c.Len() != 0 || c.WindowLen() != 0 || c.Bytes() != 0 {
				t.Fatalf("failed restore left %d entries, %d in the window, %d bytes", c.Len(), c.WindowLen(), c.Bytes())
			}
		})
	}
	if err := c.ReadState(bytes.NewReader(empty)); err != nil {
		t.Fatalf("the unedited empty snapshot was refused: %v", err)
	}
}

// withVersion returns a copy of a GCS3 snapshot claiming version v, its
// header checksum recomputed, so only the version check can refuse it.
func withVersion(snapshot []byte, v uint32) []byte {
	out := bytes.Clone(snapshot)
	binary.LittleEndian.PutUint32(out[4:], v)
	binary.LittleEndian.PutUint64(out[40:], fnv1a(out[:40]))
	return out
}

// A record value no writer produces — a negative hit count, a NaN,
// infinite or negative utility — must be refused with the record's own
// error, and leave the cache empty. A field of the first index record of
// a valid snapshot is edited under recomputed index and header checksums,
// so only the record check can refuse it. A negative base candidate count
// cannot be spelled: the field is unsigned.
func TestRestoreRefusesUnwrittenRecordValues(t *testing.T) {
	src, _ := warmCache(t, 907)
	method := src.Method()
	state := snapshotOf(t, src)
	restore := func(raw []byte) (*Cache, error) {
		c := MustNew(method, DefaultConfig())
		return c, c.ReadState(bytes.NewReader(raw))
	}
	if _, err := restore(state); err != nil {
		t.Fatalf("unedited snapshot refused: %v", err)
	}
	cases := []struct {
		name string
		off  int // offset in the index record
		bits uint64
		want string
	}{
		{"negative-hits", 16, uint64(math.MaxUint64 - 2), "negative hit count -3"},
		{"nan-saved-tests", 24, math.Float64bits(math.NaN()), "implausible utility NaN/"},
		{"inf-saved-tests", 24, math.Float64bits(math.Inf(1)), "implausible utility +Inf/"},
		{"negative-saved-tests", 24, math.Float64bits(-1), "implausible utility -1/"},
		{"minus-inf-saved-cost", 32, math.Float64bits(math.Inf(-1)), "/-Inf"},
		{"nan-saved-cost", 32, math.Float64bits(math.NaN()), "/NaN"},
	}
	const prefix = "core: state: entry 0: "
	for _, tc := range cases {
		raw := bytes.Clone(state)
		binary.LittleEndian.PutUint64(raw[headerLen+tc.off:], tc.bits)
		bodyOff := binary.LittleEndian.Uint64(raw[16:])
		binary.LittleEndian.PutUint64(raw[32:], fnv1a(raw[headerLen:bodyOff]))
		binary.LittleEndian.PutUint64(raw[40:], fnv1a(raw[:40]))
		c, err := restore(raw)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), prefix) {
			t.Errorf("%s: ReadState returned %v, want %q after %q", tc.name, err, tc.want, prefix)
		}
		if c.Len() != 0 {
			t.Errorf("%s: refused restore left %d entries", tc.name, c.Len())
		}
	}
}

// A failed restore into a WARM cache must leave its previous contents
// untouched (all-or-nothing semantics).
func TestStateFailedRestoreLeavesWarmCacheIntact(t *testing.T) {
	warm, _ := warmCache(t, 85)
	state := snapshotOf(t, warm)
	before := warm.Len()
	if err := warm.ReadState(bytes.NewReader(state[:len(state)/2])); err == nil {
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
	if small.Len() != 3 {
		t.Errorf("restored cache holds %d entries, want its capacity 3", small.Len())
	}
	// The restore evicted down to capacity: Bytes counts the kept entries alone.
	checkResidency(t, small, "after a restore that evicts")
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

// warmCache builds a cache over a fresh dataset and runs a workload
// through it, returning the cache and its executed queries.
func warmCache(t *testing.T, seed int64) (*Cache, []gen.Query) {
	t.Helper()
	dataset := testDataset(seed, 40)
	method := ftv.NewGGSXMethod(dataset, 3)
	cfg := DefaultConfig()
	cfg.Window = 2
	c := MustNew(method, cfg)
	rng := rand.New(rand.NewSource(seed + 1))
	var queries []gen.Query
	for i := 0; i < 25; i++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[i%len(dataset)], 3+i%5)
		queries = append(queries, gen.Query{G: q, Type: ftv.Subgraph})
		if _, err := c.Execute(q, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() < 3 {
		t.Fatalf("only %d admitted entries", c.Len())
	}
	return c, queries
}

// snapshotOf serializes c with WriteState.
func snapshotOf(t *testing.T, c *Cache) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A cache restored from a snapshot writes that snapshot again, byte for
// byte, which pins patterns, fingerprints, query types, utilities and
// admission order all at once. Exercised over three warm-up seeds.
func TestStateRewritesIdentically(t *testing.T) {
	for _, seed := range []int64{302, 305, 333} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			src, _ := warmCache(t, seed)
			state := snapshotOf(t, src)
			cfg := DefaultConfig()
			cfg.Window = 2
			dst := MustNew(src.Method(), cfg)
			if err := dst.ReadState(bytes.NewReader(state)); err != nil {
				t.Fatal(err)
			}
			if dst.Len() != src.Len() {
				t.Fatalf("restored %d entries, want %d", dst.Len(), src.Len())
			}
			if !bytes.Equal(snapshotOf(t, dst), state) {
				t.Fatal("the restored cache writes a snapshot that differs from the one it restored")
			}
		})
	}
}

// A snapshot round-trips through a file (the RestoreStateLazy wrapper,
// which restores eagerly) and every entry resident at the save is an
// exact hit on the restored cache, with identical answers.
func TestRestoreFromFileServesExactHits(t *testing.T) {
	src, _ := warmCache(t, 401)
	path := filepath.Join(t.TempDir(), "state.gcs3")
	if err := os.WriteFile(path, snapshotOf(t, src), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Window = 2
	dst := MustNew(src.Method(), cfg)
	closer, err := dst.RestoreStateLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	saved := src.Entries()
	if dst.Len() != len(saved) {
		t.Fatalf("restored %d entries, want %d", dst.Len(), len(saved))
	}
	for _, e := range saved {
		res, err := dst.Execute(e.Graph, e.Type)
		if err != nil {
			t.Fatal(err)
		}
		if !res.ExactHit {
			t.Fatalf("entry %d is no exact hit after the restore", e.ID)
		}
		if !res.Answers.Equal(e.Answers()) {
			t.Fatalf("entry %d: restored answers differ", e.ID)
		}
	}
}

// Tombstones already in the dataset when a snapshot restores are in no
// restored answer set: neither a snapshot written before the tombstone
// was laid, whose entries answered with the id, nor one written after it.
func TestRestoreWithPreexistingTombstones(t *testing.T) {
	src, _ := warmCache(t, 701)
	victim := -1
	for _, e := range src.Entries() {
		if e.Answers().Count() > 0 {
			victim = e.Answers().Indices()[0]
			break
		}
	}
	if victim < 0 {
		t.Fatal("no entry has answers")
	}
	before := snapshotOf(t, src)
	if err := src.RemoveGraph(victim); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Window = 2
	for name, state := range map[string][]byte{"before": before, "after": snapshotOf(t, src)} {
		dst := MustNew(src.Method(), cfg)
		if err := dst.ReadState(bytes.NewReader(state)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if dst.Len() != src.Len() {
			t.Fatalf("%s: restored %d entries, want %d", name, dst.Len(), src.Len())
		}
		for _, e := range dst.Entries() {
			if e.Answers().Contains(victim) {
				t.Fatalf("%s: restored entry %d still answers tombstoned id %d", name, e.ID, victim)
			}
		}
	}
}

// Corruption sweep: truncations at every byte of the header and the first
// index record, at every section boundary and every 37th byte after, and
// single-byte flips everywhere — each must be rejected all-or-nothing.
func TestStateCorruptionSweep(t *testing.T) {
	src, _ := warmCache(t, 801)
	raw := snapshotOf(t, src)
	cfg := DefaultConfig()
	cfg.Window = 2
	method := src.Method()

	bodyOff := int(binary.LittleEndian.Uint64(raw[16:]))
	cuts := []int{bodyOff - 1, bodyOff, bodyOff + 1, len(raw) - 1}
	for cut := 0; cut < headerLen+indexLen; cut++ {
		cuts = append(cuts, cut)
	}
	for cut := headerLen + indexLen; cut < len(raw); cut += 37 {
		cuts = append(cuts, cut)
	}
	for _, cut := range cuts {
		c := MustNew(method, cfg)
		if err := c.ReadState(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(raw))
		}
		if c.Len() != 0 || c.WindowLen() != 0 {
			t.Fatalf("truncation at %d left %d entries behind", cut, c.Len())
		}
	}

	flips := []int{0, 4, 9, 17, 25, 33, 41, 49, 57, headerLen, headerLen + 20, headerLen + 100, bodyOff, bodyOff + 1, len(raw) - 1}
	for off := 0; off < len(raw); off += 131 {
		flips = append(flips, off)
	}
	for _, off := range flips {
		if off >= len(raw) {
			continue
		}
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x40
		c := MustNew(method, cfg)
		if err := c.ReadState(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flipped byte at %d/%d accepted", off, len(raw))
		}
		if c.Len() != 0 || c.WindowLen() != 0 {
			t.Fatalf("flip at %d left %d entries behind", off, c.Len())
		}
	}
}

// blockingWriter blocks every Write until release is closed, signalling
// started on the first.
type blockingWriter struct {
	started, release chan struct{}
	once             sync.Once
	buf              bytes.Buffer
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.started) })
	<-w.release
	return w.buf.Write(p)
}

// TestSnapshotWriterHoldsNoLock: WriteState builds the snapshot under the
// locks and writes it after releasing them, so a writer stalled inside
// its io.Writer stalls no query. While it blocks, a credited sub/super
// hit (mu) and a window's worth of misses (a turn) must complete; once
// released, the snapshot restores the entries resident when it was taken.
// The subtest is named for the format the writer emits, GCS3.
func TestSnapshotWriterHoldsNoLock(t *testing.T) {
	t.Run("v3", checkSnapshotWriterHoldsNoLock)
}

func checkSnapshotWriterHoldsNoLock(t *testing.T) {
	const window = 4
	dataset := testDataset(821, 30)
	c := testCache(t, dataset, func(cfg *Config) { cfg.Window = window })
	rng := rand.New(rand.NewSource(822))
	patterns := distinctPatterns(t, rng, dataset, 2*window)
	big := gen.ExtractConnectedSubgraph(rng, dataset[0], 10)
	for _, q := range append(patterns[:window-1:window-1], big) {
		if _, err := c.Execute(q, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
	resident := c.Len()
	if resident != window {
		t.Fatalf("%d entries admitted, want %d", resident, window)
	}
	small := gen.ExtractConnectedSubgraph(rng, big, 2)

	w := &blockingWriter{started: make(chan struct{}), release: make(chan struct{})}
	saved := make(chan error, 1)
	go func() { saved <- c.WriteState(w) }()
	<-w.started

	done := make(chan error, 1)
	go func() {
		res, err := c.Execute(small, ftv.Subgraph)
		if err == nil && (res.ExactHit || len(res.Hits) == 0) {
			err = fmt.Errorf("setup: the pattern of %v was no sub/super hit", small)
		}
		turns := c.Stats().WindowTurns
		for _, q := range patterns[window-1:] {
			if err == nil {
				_, err = c.Execute(q, ftv.Subgraph)
			}
		}
		if err == nil && c.Stats().WindowTurns == turns {
			err = fmt.Errorf("setup: %d misses turned no window", len(patterns)-window+1)
		}
		done <- err
	}()
	select {
	case err := <-done:
		close(w.release)
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(w.release)
		<-done
		t.Fatal("queries wedged behind a snapshot writer blocked in its io.Writer")
	}
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
	restored := MustNew(c.Method(), DefaultConfig())
	if err := restored.ReadState(&w.buf); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != resident {
		t.Fatalf("snapshot restored %d entries, %d were resident when it was taken", restored.Len(), resident)
	}
}
