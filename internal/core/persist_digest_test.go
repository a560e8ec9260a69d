package core

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/graph"
)

// Answer sets are dataset positions, so a snapshot is exact only over the
// dataset it was written on. Both formats name that dataset by its size
// and its digest (ftv.DatasetView.Digest), and ReadState refuses any
// other.

// bothFormats returns the cache's snapshot in GCS3 and in v2 text.
func bothFormats(t *testing.T, c *Cache) map[string][]byte {
	t.Helper()
	var v3, v2 bytes.Buffer
	if err := c.WriteState(&v3); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteStateV2(&v2); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"gcs3": v3.Bytes(), "v2": v2.Bytes()}
}

// refuses asserts that a fresh cache over method refuses every snapshot
// in states with the dataset error, and is left empty.
func refuses(t *testing.T, method *ftv.Method, states map[string][]byte) {
	t.Helper()
	for format, raw := range states {
		c := MustNew(method, DefaultConfig())
		err := c.ReadState(bytes.NewReader(raw))
		if err == nil || !strings.Contains(err.Error(), "digest") {
			t.Fatalf("%s: ReadState returned %v, want the dataset digest refusal", format, err)
		}
		if c.Len() != 0 {
			t.Fatalf("%s: a refused restore left %d entries", format, c.Len())
		}
	}
}

func TestRestoreRefusedOverEqualSizeOtherDataset(t *testing.T) {
	src, _ := warmCache(t, 911)
	refuses(t, ftv.NewGGSXMethod(testDataset(912, 40), 3), bothFormats(t, src))
}

// The saving process removed graphs; the restoring one loads the base
// dataset again, of the same size, in which they are live.
func TestRestoreRefusedOverBaseDatasetAfterRemovals(t *testing.T) {
	src, _ := warmCache(t, 921)
	for _, gid := range []int{0, 7, 19} {
		if err := src.RemoveGraph(gid); err != nil {
			t.Fatal(err)
		}
	}
	refuses(t, ftv.NewGGSXMethod(testDataset(921, 40), 3), bothFormats(t, src))
}

// A Method that replayed the saver's AddGraph and RemoveGraph calls holds
// the same graphs at the same live ids: the snapshot restores, and every
// restored query answers what Method.Run answers.
func TestRestoreAcceptedAfterReplayedMutations(t *testing.T) {
	src, queries := warmCache(t, 931)
	extra := testDataset(932, 3)
	mutate := func(m interface {
		AddGraph(g *graph.Graph) (int, error)
		RemoveGraph(gid int) error
	}) {
		t.Helper()
		for i, g := range extra {
			if _, err := m.AddGraph(g); err != nil {
				t.Fatal(err)
			}
			if err := m.RemoveGraph(3 * i); err != nil {
				t.Fatal(err)
			}
		}
	}
	mutate(src)
	states := bothFormats(t, src)
	if src.Len() == 0 {
		t.Fatal("the warm cache admitted no entries")
	}

	replayed := ftv.NewGGSXMethod(testDataset(931, 40), 3)
	mutate(replayed)
	if got, want := replayed.View().Digest(), src.Method().View().Digest(); got != want {
		t.Fatalf("replayed digest %016x, saver's %016x", got, want)
	}
	for format, raw := range states {
		c := MustNew(replayed, DefaultConfig())
		if err := c.ReadState(bytes.NewReader(raw)); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if c.Len() != src.Len() {
			t.Fatalf("%s: restored %d entries, want %d", format, c.Len(), src.Len())
		}
		exact := 0
		for _, q := range queries {
			res, err := c.Execute(q.G, q.Type)
			if err != nil {
				t.Fatal(err)
			}
			if res.ExactHit {
				exact++
			}
			if want := replayed.Run(q.G, q.Type).Answers; !res.Answers.Equal(want) {
				t.Fatalf("%s: answers %v, Method.Run %v", format, res.Answers, want)
			}
		}
		if exact == 0 {
			t.Fatalf("%s: no query was an exact hit on the restored entries", format)
		}
	}
}

// asVersion4 rewrites a GCS3 snapshot's header the way version 4 wrote
// it — the dataset epoch where the digest is now — with a valid header
// checksum, so only the version check can refuse it.
func asVersion4(snapshot []byte) []byte {
	old := bytes.Clone(snapshot)
	binary.LittleEndian.PutUint32(old[4:], 4)
	binary.LittleEndian.PutUint64(old[16:], 0)
	binary.LittleEndian.PutUint64(old[56:], fnv1a(old[:56]))
	return old
}

func TestRestoreRefusesVersion4Snapshot(t *testing.T) {
	src, _ := warmCache(t, 941)
	c := MustNew(src.Method(), DefaultConfig())
	err := c.ReadState(bytes.NewReader(asVersion4(v3State(t, src))))
	if err == nil || !strings.Contains(err.Error(), "unsupported state version 4") {
		t.Fatalf("ReadState of a version-4 snapshot returned %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("a refused restore left %d entries", c.Len())
	}
}
