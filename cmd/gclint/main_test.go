package main

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for gclint to chew on.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module scratch\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const scratchHeader = `package scratch

import (
	"sync"
	"sync/atomic"
)

//gclint:hierarchy outer inner

type kernel struct {
	//gclint:lock outer
	outerMu sync.Mutex
	//gclint:lock inner
	innerMu sync.Mutex
	state   atomic.Pointer[snap]
}

//gclint:cow
type snap struct{ n int }
`

// TestRunCleanModule: a conforming scratch module lints clean.
func TestRunCleanModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"scratch.go": scratchHeader + `
func (k *kernel) good() {
	k.outerMu.Lock()
	defer k.outerMu.Unlock()
	k.innerMu.Lock()
	k.innerMu.Unlock()
}

func (k *kernel) republish() {
	old := k.state.Load()
	k.state.Store(&snap{n: old.n + 1})
}
`,
	})
	var out strings.Builder
	if err := run([]string{"-C", dir, "./..."}, &out); err != nil {
		t.Fatalf("expected clean lint, got %v\n%s", err, out.String())
	}
}

// TestRunHierarchyViolation: deliberately reversing the lock hierarchy
// in a scratch file must fail the lint run.
func TestRunHierarchyViolation(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"scratch.go": scratchHeader + `
func (k *kernel) reversed() {
	k.innerMu.Lock()
	defer k.innerMu.Unlock()
	k.outerMu.Lock()
	k.outerMu.Unlock()
}
`,
	})
	var out strings.Builder
	err := run([]string{"-C", dir, "./..."}, &out)
	if !errors.Is(err, errFindings) {
		t.Fatalf("expected findings, got %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "lockorder") || !strings.Contains(out.String(), "acquiring outer while inner is held") {
		t.Fatalf("missing lockorder finding:\n%s", out.String())
	}
}

// TestRunCowViolation: mutating a published COW snapshot in a scratch
// file must fail the lint run.
func TestRunCowViolation(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"scratch.go": scratchHeader + `
func (k *kernel) scribble() {
	st := k.state.Load()
	st.n = 7
}
`,
	})
	var out strings.Builder
	err := run([]string{"-C", dir, "./..."}, &out)
	if !errors.Is(err, errFindings) {
		t.Fatalf("expected findings, got %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "cowpublish") || !strings.Contains(out.String(), "write through published copy-on-write value") {
		t.Fatalf("missing cowpublish finding:\n%s", out.String())
	}
}

// TestRunTornSnapshotViolation: loading an annotated snapshot cell twice
// inside one operation scope must fail the lint run — the seeded version
// of the detectHits comparator bug (internal/core/processor.go's
// rankCandidates extraction).
func TestRunTornSnapshotViolation(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"scratch.go": `package scratch

import "sync/atomic"

type box struct {
	//gclint:snapshot data
	data atomic.Pointer[int]
}

//gclint:pins data
func torn(b *box) int {
	a := *b.data.Load()
	c := *b.data.Load()
	return a + c
}
`,
	})
	var out strings.Builder
	err := run([]string{"-C", dir, "./..."}, &out)
	if !errors.Is(err, errFindings) {
		t.Fatalf("expected findings, got %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "snapshotonce") || !strings.Contains(out.String(), "loaded more than once in one operation scope") {
		t.Fatalf("missing snapshotonce finding:\n%s", out.String())
	}
}

// TestRunLeafViolation: calling an acquires-annotated function inside a
// leaf lock's critical section must fail the lint run, naming the leaf.
func TestRunLeafViolation(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"scratch.go": `package scratch

import "sync"

//gclint:hierarchy outer

type kernel struct {
	//gclint:lock outer
	outerMu sync.Mutex
	//gclint:lock pool
	//gclint:leaf
	poolMu sync.Mutex
}

//gclint:acquires outer
func (k *kernel) touch() {
	k.outerMu.Lock()
	k.outerMu.Unlock()
}

func (k *kernel) nested() {
	k.poolMu.Lock()
	defer k.poolMu.Unlock()
	k.touch()
}
`,
	})
	var out strings.Builder
	err := run([]string{"-C", dir, "./..."}, &out)
	if !errors.Is(err, errFindings) {
		t.Fatalf("expected findings, got %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "lockorder") || !strings.Contains(out.String(), "call to touch acquires outer while leaf lock pool is held") {
		t.Fatalf("missing leaf finding:\n%s", out.String())
	}
}

// TestRunContextDropViolation: a function that receives a context and
// then calls the context-less sibling of a *Context API pair must fail
// the lint run — the exact shape of the PR 4 batch-streaming bug, where a
// handler held r.Context() but invoked ExecuteAllStream instead of
// ExecuteAllStreamContext.
func TestRunContextDropViolation(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"scratch.go": `package scratch

import "context"

func Fetch(id int) int { return id }

func FetchContext(ctx context.Context, id int) int { return id }

func Handle(ctx context.Context, id int) int {
	return Fetch(id)
}
`,
	})
	var out strings.Builder
	err := run([]string{"-C", dir, "./..."}, &out)
	if !errors.Is(err, errFindings) {
		t.Fatalf("expected findings, got %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ctxflow") || !strings.Contains(out.String(), "call to Fetch drops the request context; use FetchContext") {
		t.Fatalf("missing ctxflow finding:\n%s", out.String())
	}
}

// TestRunJSONOutput: -json must emit machine-parseable diagnostics with
// module-relative paths — the contract the CI annotation step depends on.
func TestRunJSONOutput(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"scratch.go": `package scratch

import "context"

func Work(ctx context.Context) context.Context {
	return context.Background()
}
`,
	})
	var out strings.Builder
	err := run([]string{"-C", dir, "-json", "./..."}, &out)
	if !errors.Is(err, errFindings) {
		t.Fatalf("expected findings, got %v\n%s", err, out.String())
	}
	var diags []struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out.String()), &diags); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic, got %d:\n%s", len(diags), out.String())
	}
	d := diags[0]
	if d.Analyzer != "ctxflow" || d.File != "scratch.go" || d.Line == 0 || d.Col == 0 ||
		!strings.Contains(d.Message, "discards the context.Context Work already receives") {
		t.Fatalf("unexpected diagnostic %+v", d)
	}
}

// TestRunWaiversInventory: -waivers must list every //gclint:ignore with
// its reason and exit clean.
func TestRunWaiversInventory(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"scratch.go": `package scratch

import "context"

func Fetch(id int) int { return id }

func FetchContext(ctx context.Context, id int) int { return id }

func Handle(ctx context.Context, id int) int {
	//gclint:ignore ctxflow -- scratch fixture exercising the waiver inventory
	return Fetch(id)
}
`,
	})
	var out strings.Builder
	if err := run([]string{"-C", dir, "-waivers", "./..."}, &out); err != nil {
		t.Fatalf("waivers mode should exit clean, got %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "scratch.go:10: waives [ctxflow] -- scratch fixture exercising the waiver inventory") {
		t.Fatalf("missing waiver line:\n%s", out.String())
	}
}

// TestRunRepo: the repository itself must lint clean — this is `make
// lint` as a regression test.
func TestRunRepo(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-C", "../..", "./..."}, &out); err != nil {
		t.Fatalf("repo does not lint clean: %v\n%s", err, out.String())
	}
}

// TestRunRejectsBadFlags: flag errors surface as errors, not panics.
func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &out); err == nil || errors.Is(err, flag.ErrHelp) {
		t.Fatalf("expected flag error, got %v", err)
	}
}
