package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
)

// The golden transcripts pin the kernel's observable behaviour across
// commits: a pure refactor must leave every digest in testdata/golden.txt
// unchanged, and a change that moves one names the streams and the
// reason. Regenerate the file with
//
//	go test ./internal/core -run TestGoldenTranscripts -golden.update
//
// and compare two builds transcript by transcript with -golden.dump DIR:
// each stream's transcript is written to DIR, and a file already there
// (from a run of the other build) is diffed first.
var (
	goldenUpdate = flag.Bool("golden.update", false, "rewrite testdata/golden.txt from this build")
	goldenDump   = flag.String("golden.dump", "", "write each golden transcript to this directory, diffing any transcript already there")
)

const goldenFile = "testdata/golden.txt"

// shortPolicy names no victims, so every eviction is the kernel filling
// a policy's shortfall (markVictims: oldest admitted first).
type shortPolicy struct{}

func (shortPolicy) Name() string                            { return "short" }
func (shortPolicy) UpdateCacheStaInfo(ev *HitEvent)         { ev.Credit() }
func (shortPolicy) ReplacedContent(_ []*Entry, _ int) []int { return nil }

type goldenStream struct {
	policy string
	seed   int64
}

func (s goldenStream) String() string {
	return fmt.Sprintf("%s-seed%d", s.policy, s.seed)
}

func goldenStreams() []goldenStream {
	var out []goldenStream
	for _, policy := range []string{"pin", "lru", "fifo", "pop", "short"} {
		for _, seed := range []int64{11, 22, 33} {
			out = append(out, goldenStream{policy, seed})
		}
	}
	return out
}

// TestGoldenTranscripts runs every golden stream and compares the SHA-256
// of its transcript with the committed digest.
func TestGoldenTranscripts(t *testing.T) {
	want := map[string]string{}
	if !*goldenUpdate {
		data, err := os.ReadFile(goldenFile)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			name, digest, ok := strings.Cut(line, " ")
			if !ok {
				t.Fatalf("%s: malformed line %q", goldenFile, line)
			}
			want[name] = digest
		}
	}
	var lines []string
	for _, s := range goldenStreams() {
		transcript := goldenTranscript(t, s)
		sum := sha256.Sum256(transcript)
		got := hex.EncodeToString(sum[:])
		lines = append(lines, s.String()+" "+got)
		diff := ""
		if *goldenDump != "" {
			diff = dumpGolden(t, s, transcript)
		}
		if !*goldenUpdate && want[s.String()] != got {
			t.Errorf("%s: digest %s, golden %s%s", s, got, want[s.String()], diff)
		}
	}
	if *goldenUpdate {
		if err := os.WriteFile(goldenFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// dumpGolden writes the transcript to the dump directory and returns the
// first line where it differs from the transcript that was there.
func dumpGolden(t *testing.T, s goldenStream, transcript []byte) string {
	t.Helper()
	path := filepath.Join(*goldenDump, s.String()+".txt")
	diff := ""
	if old, err := os.ReadFile(path); err == nil && !bytes.Equal(old, transcript) {
		a, b := strings.Split(string(old), "\n"), strings.Split(string(transcript), "\n")
		for i := 0; i < len(a) || i < len(b); i++ {
			var la, lb string
			if i < len(a) {
				la = a[i]
			}
			if i < len(b) {
				lb = b[i]
			}
			if la != lb {
				diff = fmt.Sprintf("\nfirst difference at line %d:\n  was: %s\n  now: %s", i+1, la, lb)
				break
			}
		}
	}
	if err := os.MkdirAll(*goldenDump, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, transcript, 0o644); err != nil {
		t.Fatal(err)
	}
	return diff
}

// goldenTranscript drives one stream: 300 mixed zipf queries over 40
// molecules through a Capacity 20, Window 4 cache with SelfCheck armed, an
// addition and a removal after every 25th query, and a GCS3 save and
// restore after query 150. The additions re-add dataset graphs, so they
// land in the answer sets of the patterns extracted from them. It renders every result, every mutation, the
// snapshot, the resident entries and every non-timing counter.
func goldenTranscript(t *testing.T, s goldenStream) []byte {
	t.Helper()
	dataset := testDataset(51, 40)
	w, err := gen.NewWorkload(rand.New(rand.NewSource(s.seed)), dataset, gen.WorkloadConfig{
		Size: 300, Mixed: true, PoolSize: 60,
		ZipfS: 1.2, ChainFrac: 0.6, ChainLen: 3, MinEdges: 3, MaxEdges: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var p Policy = shortPolicy{}
	if s.policy != "short" {
		if p, err = NewPolicy(s.policy); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.Capacity = 20
	cfg.Window = 4
	cfg.Policy = p
	cfg.SelfCheck = true
	c := MustNew(ftv.NewGGSXMethod(dataset, 3), cfg)

	var b bytes.Buffer
	out := bufio.NewWriter(&b)
	rng := rand.New(rand.NewSource(s.seed))
	for i, q := range w.Queries {
		res, err := c.Execute(q.G, q.Type)
		if err != nil {
			t.Fatalf("%s query %d: %v", s, i, err)
		}
		fmt.Fprintf(out, "q%d %s exact=%t tests=%d base=%d hits=%v answers=%s len=%d bytes=%d window=%d\n",
			i, q.Type, res.ExactHit, res.Tests, res.BaseCandidates, res.Hits, res.Answers,
			c.Len(), c.Bytes(), c.WindowLen())
		if (i+1)%25 == 0 {
			gid, err := c.AddGraph(dataset[(i+1)/25-1])
			if err != nil {
				t.Fatal(err)
			}
			view := c.Method().View()
			rm := rng.Intn(view.Size())
			for view.Graph(rm) == nil {
				rm = (rm + 1) % view.Size()
			}
			if err := c.RemoveGraph(rm); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(out, "add %d remove %d len=%d bytes=%d window=%d\n", gid, rm, c.Len(), c.Bytes(), c.WindowLen())
		}
		if i+1 == 150 {
			var state bytes.Buffer
			if err := c.WriteState(&state); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(canonicalGCS3(t, state.Bytes()))
			if err := c.ReadState(bytes.NewReader(state.Bytes())); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(out, "gcs3 %x len=%d bytes=%d window=%d\n", sum, c.Len(), c.Bytes(), c.WindowLen())
		}
	}
	for _, e := range c.Entries() {
		fmt.Fprintf(out, "entry %d %s hits=%d saved=%v inserted=%d used=%d answers=%s\n",
			e.ID, e.Type, e.Hits, e.SavedTests, e.InsertedAt, e.LastUsed, e.Answers())
	}
	// Every Snapshot field but the wall-clock ones: the durations and the
	// nanosecond clocks.
	sv := reflect.ValueOf(c.Stats())
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Type().Field(i)
		if f.Type == reflect.TypeFor[time.Duration]() || strings.HasSuffix(f.Name, "Ns") {
			continue
		}
		fmt.Fprintf(out, "%s=%v\n", f.Name, sv.Field(i).Interface())
	}
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// canonicalGCS3 zeroes the parts of a GCS3 snapshot that vary run to run:
// each index record's saved cost ns ([32,40) of the record), which prices
// savings with wall-clock cost estimates, and the index and header
// checksums ([32,48) of the header) that cover it.
func canonicalGCS3(t *testing.T, data []byte) []byte {
	t.Helper()
	if len(data) < headerLen {
		t.Fatalf("snapshot of %d bytes has no header", len(data))
	}
	data = bytes.Clone(data)
	clear(data[32:48])
	n := int(binary.LittleEndian.Uint64(data[8:16]))
	for i := 0; i < n; i++ {
		rec := headerLen + i*indexLen
		clear(data[rec+32 : rec+40])
	}
	return data
}
