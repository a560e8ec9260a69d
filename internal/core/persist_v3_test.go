package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
)

// warmCache builds a cache with the given shard count over a fresh
// dataset and runs a workload through it, returning the cache and its
// executed queries.
func warmCache(t *testing.T, seed int64, shards int) (*Cache, []gen.Query) {
	t.Helper()
	dataset := testDataset(seed, 40)
	method := ftv.NewGGSXMethod(dataset, 3)
	cfg := DefaultConfig()
	cfg.Window = 2
	cfg.Shards = shards
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
// same entries, same answers, byte for byte — at every shard geometry.
// Both restored caches are re-serialized through the deterministic v2
// writer and compared as bytes, which pins answers, utility counters and
// admission order all at once.
func TestV2V3Equivalence(t *testing.T) {
	for _, shards := range []int{1, 4, 32} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			src, _ := warmCache(t, 301+int64(shards), shards)
			method := src.Method()
			cfg := DefaultConfig()
			cfg.Window = 2
			cfg.Shards = shards

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

// A v3 snapshot round-trips through a file and serves every original
// query as an exact hit with identical answers — in lazy mode.
func TestV3LazyRestoreServesExactHits(t *testing.T) {
	src, queries := warmCache(t, 401, 4)
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
	if dst.Len() != src.Len() {
		t.Fatalf("restored %d entries, want %d", dst.Len(), src.Len())
	}
	if got := dst.Stats().StateBodyFaults; got != 0 {
		t.Fatalf("restore itself faulted %d bodies", got)
	}
	hits := 0
	for _, q := range queries {
		res, err := dst.Execute(q.G, q.Type)
		if err != nil {
			t.Fatal(err)
		}
		if !res.ExactHit {
			continue // evicted before the save; nothing to compare
		}
		hits++
		srcRes, err := src.Execute(q.G, q.Type)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Answers.Equal(srcRes.Answers) {
			t.Fatalf("lazily restored answers differ for query on %d vertices", q.G.N())
		}
	}
	if hits == 0 {
		t.Fatal("no exact hits on the restored cache")
	}
	if got := dst.Stats().StateBodyFaults; got == 0 {
		t.Fatal("exact hits faulted no bodies — restore was not lazy")
	}
}

// countingReaderAt records every ReadAt issued against a snapshot.
type countingReaderAt struct {
	r     *bytes.Reader
	reads [][2]int64 // (offset, length)
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads = append(c.reads, [2]int64{off, int64(len(p))})
	return c.r.ReadAt(p, off)
}

// ansRanges extracts each entry's answer-body byte range from a valid v3
// snapshot's index section.
func ansRanges(raw []byte) [][2]int64 {
	n := binary.LittleEndian.Uint64(raw[24:])
	out := make([][2]int64, 0, n)
	for i := uint64(0); i < n; i++ {
		rec := raw[v3HeaderLen+i*v3IndexLen:]
		off := binary.LittleEndian.Uint64(rec[96:])
		graphLen := binary.LittleEndian.Uint64(rec[104:])
		ansLen := binary.LittleEndian.Uint64(rec[112:])
		out = append(out, [2]int64{int64(off + graphLen), int64(ansLen)})
	}
	return out
}

func overlapping(reads, ranges [][2]int64) int {
	n := 0
	for _, rd := range reads {
		for _, rg := range ranges {
			if rd[0] < rg[0]+rg[1] && rg[0] < rd[0]+rd[1] {
				n++
				break
			}
		}
	}
	return n
}

// The lazy-restore contract, pinned at the I/O layer: restoring reads the
// header, index and graphs but not one byte of any answer body; the first
// Answers() on each entry then reads exactly that entry's body.
func TestV3LazyRestoreReadsNoAnswerBodies(t *testing.T) {
	src, _ := warmCache(t, 501, 4)
	raw := v3State(t, src)
	ranges := ansRanges(raw)

	cr := &countingReaderAt{r: bytes.NewReader(raw)}
	cfg := DefaultConfig()
	cfg.Window = 2
	dst := MustNew(src.Method(), cfg)
	if err := dst.readStateV3(&stateSource{r: cr, size: int64(len(raw))}, true); err != nil {
		t.Fatal(err)
	}
	if len(cr.reads) == 0 {
		t.Fatal("restore issued no reads at all")
	}
	if n := overlapping(cr.reads, ranges); n != 0 {
		t.Fatalf("lazy restore read %d answer bodies before any query", n)
	}

	entries := dst.Entries()
	for _, e := range entries {
		e.Answers()
	}
	if n := overlapping(cr.reads, ranges); n != len(entries) {
		t.Fatalf("faulting every entry read %d bodies, want %d", n, len(entries))
	}
	// A second Answers() hits the published state, not the file.
	before := len(cr.reads)
	for _, e := range entries {
		e.Answers()
	}
	if len(cr.reads) != before {
		t.Fatal("re-reading answers touched the snapshot file again")
	}
}

// Dataset mutations on a lazily restored cache stay exact even for
// entries whose bodies have not faulted in yet: an eagerly restored twin
// is the oracle.
func TestV3LazyRestoreSurvivesMutations(t *testing.T) {
	src, _ := warmCache(t, 601, 4)
	raw := v3State(t, src)
	cfg := DefaultConfig()
	cfg.Window = 2

	// The twins need independent methods (a method owns its live dataset,
	// so sharing one would share the mutations too); testDataset is
	// deterministic, so both rebuild the dataset warmCache(601, ...) used.
	lazy := MustNew(ftv.NewGGSXMethod(testDataset(601, 40), 3), cfg)
	if err := lazy.readStateV3(newMemStateSource(raw), true); err != nil {
		t.Fatal(err)
	}
	eager := MustNew(ftv.NewGGSXMethod(testDataset(601, 40), 3), cfg)
	if err := eager.ReadState(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	checkResidency(t, lazy, "after lazy restore")
	checkResidency(t, eager, "after eager restore")

	// Tombstone an id that appears in some restored answer set — BEFORE
	// that entry's body ever faults in.
	victim := -1
	for _, e := range eager.Entries() {
		if e.Answers().Count() > 0 {
			victim = e.Answers().Indices()[0]
			break
		}
	}
	if victim < 0 {
		t.Fatal("no restored entry has answers")
	}
	if err := lazy.RemoveGraph(victim); err != nil {
		t.Fatal(err)
	}
	if err := eager.RemoveGraph(victim); err != nil {
		t.Fatal(err)
	}
	// And grow the dataset, so fault-in must also reconcile an addition.
	added := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(602)), src.Method().Dataset()[0], 6)
	if _, err := lazy.AddGraph(added); err != nil {
		t.Fatal(err)
	}
	if _, err := eager.AddGraph(added); err != nil {
		t.Fatal(err)
	}
	checkResidency(t, lazy, "lazy restore, after mutations")

	le, ee := lazy.Entries(), eager.Entries()
	if len(le) != len(ee) {
		t.Fatalf("entry counts diverged: lazy %d, eager %d", len(le), len(ee))
	}
	for i, e := range ee {
		res, err := lazy.Execute(e.Graph, e.Type)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := eager.Execute(e.Graph, e.Type)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Answers.Equal(oracle.Answers) {
			t.Fatalf("entry %d: lazy and eager answers diverged after mutations", i)
		}
		if res.Answers.Contains(victim) {
			t.Fatalf("entry %d: tombstoned id %d still answered", i, victim)
		}
	}
	// Every body has faulted in by now (hashed by the faulting query) and
	// the next mutation trues every entry up against the pool.
	if err := lazy.RemoveGraph((victim + 1) % 40); err != nil {
		t.Fatal(err)
	}
	checkResidency(t, lazy, "lazy restore, after fault-in and true-up")
}

// Tombstones that predate the snapshot are carried into a lazy restore as
// initial drops.
func TestV3LazyRestoreWithPreexistingTombstones(t *testing.T) {
	src, _ := warmCache(t, 701, 4)
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
	if err := src.RemoveGraph(victim); err != nil {
		t.Fatal(err)
	}
	raw := v3State(t, src)

	cfg := DefaultConfig()
	cfg.Window = 2
	lazy := MustNew(src.Method(), cfg)
	if err := lazy.readStateV3(newMemStateSource(raw), true); err != nil {
		t.Fatal(err)
	}
	for _, e := range lazy.Entries() {
		if e.Answers().Contains(victim) {
			t.Fatalf("restored entry still answers tombstoned id %d", victim)
		}
	}
}

// Corruption sweep over the binary format: truncations at every section
// boundary and stride, and single-byte flips everywhere — each must be
// rejected all-or-nothing by the eager reader.
func TestV3CorruptionSweep(t *testing.T) {
	src, _ := warmCache(t, 801, 4)
	raw := v3State(t, src)
	cfg := DefaultConfig()
	cfg.Window = 2
	method := src.Method()

	bodyOff := int(binary.LittleEndian.Uint64(raw[32:]))
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

// A body corrupted AFTER a lazy restore validated the snapshot must
// panic at fault-in — wrong answers are worse than a crash, the same
// contract SelfCheck enforces.
func TestV3LazyFaultOnCorruptedBodyPanics(t *testing.T) {
	src, _ := warmCache(t, 901, 1)
	raw := v3State(t, src)
	ranges := ansRanges(raw)

	cfg := DefaultConfig()
	cfg.Window = 2
	lazy := MustNew(src.Method(), cfg)
	data := append([]byte(nil), raw...)
	if err := lazy.readStateV3(newMemStateSource(data), true); err != nil {
		t.Fatal(err)
	}
	// Corrupt the first entry's answer body behind the restore's back.
	data[ranges[0][0]+ranges[0][1]/2] ^= 0xff

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("faulting a corrupted body did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "corrupted") {
			t.Fatalf("panic does not name the corruption: %v", r)
		}
	}()
	for _, e := range lazy.Entries() {
		e.Answers()
	}
}
