package core

import (
	"bytes"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/graph"
)

// A snapshot holds patterns and utilities, not answers: ReadState re-runs
// every pattern on the view it pins, so it restores over any dataset and
// every restored entry answers what Method.Run answers there.

// restoresAsRun restores the snapshot raw into a fresh cache over method
// and asserts what a restore owes: the saved entries in their order, each
// answering Method.Run on the restore's view, with the saved hits and
// utilities, and base candidates capped at the view's id space. It
// returns the restored cache.
func restoresAsRun(t *testing.T, src *Cache, method *ftv.Method, raw []byte) *Cache {
	t.Helper()
	saved := src.Entries()
	c := MustNew(method, DefaultConfig())
	if err := c.ReadState(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	view := method.View()
	got := c.Entries()
	if len(got) != len(saved) {
		t.Fatalf("restored %d entries, want %d", len(got), len(saved))
	}
	for i, e := range got {
		s := saved[i]
		if e.Fingerprint != s.Fingerprint || e.Type != s.Type {
			t.Fatalf("entry %d restored out of order", i)
		}
		if want := view.Run(e.Graph, e.Type).Answers; !e.Answers().Equal(want) {
			t.Fatalf("entry %d answers %v, Method.Run %v", i, e.Answers(), want)
		}
		if e.Hits != s.Hits || e.SavedTests != s.SavedTests || e.SavedCostNs != s.SavedCostNs {
			t.Fatalf("entry %d utilities %d/%g/%g, saved %d/%g/%g", i,
				e.Hits, e.SavedTests, e.SavedCostNs, s.Hits, s.SavedTests, s.SavedCostNs)
		}
		if want := min(s.BaseCandidates, view.Size()); e.BaseCandidates != want {
			t.Fatalf("entry %d base candidates %d, want %d", i, e.BaseCandidates, want)
		}
	}
	return c
}

// TestRestoreOverOtherDataset: a snapshot restores over a dataset it was
// not written on — a smaller one, so some recorded base candidate counts
// exceed its id space and are capped — and every entry answers as
// Method.Run does there.
func TestRestoreOverOtherDataset(t *testing.T) {
	src, queries := warmCache(t, 911)
	// Exact hits give the entries utilities worth carrying over.
	for _, q := range queries[:8] {
		if _, err := src.Execute(q.G, q.Type); err != nil {
			t.Fatal(err)
		}
	}
	other := ftv.NewGGSXMethod(testDataset(912, 6), 3)
	capped := false
	for _, e := range src.Entries() {
		capped = capped || e.BaseCandidates > other.View().Size()
	}
	if !capped {
		t.Fatal("no saved base candidate count exceeds the other dataset: the cap is not exercised")
	}
	restoresAsRun(t, src, other, snapshotOf(t, src))
}

// TestRestoreOverBaseDatasetAfterMutations: the saving process removed
// and added graphs; the restoring one loads the base dataset again, in
// which the removed graphs are live and the added ones absent.
func TestRestoreOverBaseDatasetAfterMutations(t *testing.T) {
	src, _ := warmCache(t, 921)
	for _, gid := range []int{0, 7, 19} {
		if err := src.RemoveGraph(gid); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range testDataset(922, 3) {
		if _, err := src.AddGraph(g); err != nil {
			t.Fatal(err)
		}
	}
	restoresAsRun(t, src, ftv.NewGGSXMethod(testDataset(921, 40), 3), snapshotOf(t, src))
}

// A Method that replayed the saver's AddGraph and RemoveGraph calls holds
// the same graphs at the same live ids: the snapshot restores, and every
// restored query is an exact hit answering what Method.Run answers.
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
	state := snapshotOf(t, src)
	replayed := ftv.NewGGSXMethod(testDataset(931, 40), 3)
	mutate(replayed)
	c := restoresAsRun(t, src, replayed, state)
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
			t.Fatalf("answers %v, Method.Run %v", res.Answers, want)
		}
	}
	if exact == 0 {
		t.Fatal("no query was an exact hit on the restored entries")
	}
}
