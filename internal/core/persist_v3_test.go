package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
)

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

// v3State serializes c into the binary format.
func v3State(t *testing.T, c *Cache) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The binary format must restore the exact state the text format does:
// same entries, same answers, byte for byte. Both restored caches are
// re-serialized through the deterministic v2 writer and compared as bytes,
// which pins answers, utility counters and admission order all at once.
// Exercised over three warm-up seeds (shardsSeed).
func TestV2V3Equivalence(t *testing.T) {
	for _, shards := range []int{1, 4, 32} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			src, _ := warmCache(t, shardsSeed(301, shards))
			method := src.Method()
			cfg := DefaultConfig()
			cfg.Window = 2

			var v2 bytes.Buffer
			if err := src.WriteStateV2(&v2); err != nil {
				t.Fatal(err)
			}
			v3 := v3State(t, src)

			fromV2 := MustNew(method, cfg)
			if err := fromV2.ReadState(bytes.NewReader(v2.Bytes())); err != nil {
				t.Fatalf("v2 restore: %v", err)
			}
			fromV3 := MustNew(method, cfg)
			if err := fromV3.ReadState(bytes.NewReader(v3)); err != nil {
				t.Fatalf("v3 restore: %v", err)
			}

			if fromV2.Len() != src.Len() || fromV3.Len() != src.Len() {
				t.Fatalf("entry counts: src %d, v2 %d, v3 %d", src.Len(), fromV2.Len(), fromV3.Len())
			}
			var rv2, rv3 bytes.Buffer
			if err := fromV2.WriteStateV2(&rv2); err != nil {
				t.Fatal(err)
			}
			if err := fromV3.WriteStateV2(&rv3); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rv2.Bytes(), rv3.Bytes()) {
				t.Fatal("v2- and v3-restored caches re-serialize differently: answers are not byte-identical")
			}
		})
	}
}

// A v3 snapshot round-trips through a file (the RestoreStateLazy
// wrapper, which restores eagerly) and every entry resident at the save
// is an exact hit on the restored cache, with identical answers.
func TestV3LazyRestoreServesExactHits(t *testing.T) {
	src, _ := warmCache(t, 401)
	path := filepath.Join(t.TempDir(), "state.gcs3")
	if err := os.WriteFile(path, v3State(t, src), 0o644); err != nil {
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
func TestV3LazyRestoreWithPreexistingTombstones(t *testing.T) {
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
	before := v3State(t, src)
	if err := src.RemoveGraph(victim); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Window = 2
	for name, state := range map[string][]byte{"before": before, "after": v3State(t, src)} {
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

// Corruption sweep over the binary format: truncations at every section
// boundary and stride, and single-byte flips everywhere — each must be
// rejected all-or-nothing by the eager reader.
func TestV3CorruptionSweep(t *testing.T) {
	src, _ := warmCache(t, 801)
	raw := v3State(t, src)
	cfg := DefaultConfig()
	cfg.Window = 2
	method := src.Method()

	bodyOff := int(binary.LittleEndian.Uint64(raw[16:]))
	cuts := []int{0, 3, 4, 8, v3HeaderLen - 1, v3HeaderLen, v3HeaderLen + v3IndexLen/2, bodyOff - 1, bodyOff, bodyOff + 1, len(raw) - 1}
	for off := 0; off < len(raw); off += 97 {
		cuts = append(cuts, off)
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

	flips := []int{0, 4, 9, 17, 25, 33, 41, 49, 57, v3HeaderLen, v3HeaderLen + 20, v3HeaderLen + 100, bodyOff, bodyOff + 1, len(raw) - 1}
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

// TestV3RefusesVersion3: a version-3 file, whose answer sets could be in
// the bitset run container, is refused by its version even with a valid
// header checksum, and the cache is left empty.
func TestV3RefusesVersion3(t *testing.T) {
	src, _ := warmCache(t, 805)
	raw := withVersion(v3State(t, src), 3)
	cfg := DefaultConfig()
	cfg.Window = 2
	c := MustNew(src.Method(), cfg)
	err := c.ReadState(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "unsupported state version 3") {
		t.Fatalf("version-3 file: err = %v, want unsupported state version 3", err)
	}
	if c.Len() != 0 || c.WindowLen() != 0 || c.Bytes() != 0 {
		t.Fatalf("refused restore left %d entries, %d in the window, %d bytes", c.Len(), c.WindowLen(), c.Bytes())
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

// TestSnapshotWriterHoldsNoLock: both snapshot writers build the state
// under the locks and write it after releasing them, so a writer stalled
// inside its io.Writer stalls no query. While it blocks, a credited
// sub/super hit (mu) and a window's worth of misses (a turn) must
// complete; once released, the snapshot restores the entries resident
// when it was taken.
func TestSnapshotWriterHoldsNoLock(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(*Cache, io.Writer) error
	}{{"v3", (*Cache).WriteState}, {"v2", (*Cache).WriteStateV2}} {
		t.Run(tc.name, func(t *testing.T) {
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
			go func() { saved <- tc.write(c, w) }()
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
		})
	}
}
