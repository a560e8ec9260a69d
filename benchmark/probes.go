package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"graphcache/internal/bitset"
	"graphcache/internal/core"
	"graphcache/internal/ftv"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// layerProbes calls each layer directly, one call at a time on one
// goroutine, on a sample of the workload's own queries: the graph, ftv and
// iso layers through an uncached run taken apart, then the cache itself for
// allocations per hit class, then bitset algebra on the answer sets those
// calls returned.
func layerProbes(s *system, r *report) {
	v := r.vals
	sample := s.w.patterns(s.w.probe)
	var fingerprint, parse, filter, verify, qh time.Duration
	var candidates, answers, qhTests int
	var allocs [numClasses]uint64
	var calls [numClasses]int
	var sets []*bitset.Set
	view := s.method.View()
	for i, p := range sample {
		fresh := copyGraph(p.g)
		t0 := time.Now()
		fresh.WLFingerprint(3)
		fingerprint += time.Since(t0)

		text := graphText(p.g)
		t0 = time.Now()
		_, err := graph.ReadAll(strings.NewReader(text))
		parse += time.Since(t0)
		r.tally.check(err)

		t0 = time.Now()
		cands := view.Candidates(p.g, p.qt)
		filter += time.Since(t0)
		t0 = time.Now()
		cands.ForEach(func(gid int) bool {
			candidates++
			if view.VerifyCandidate(p.g, gid, p.qt) {
				answers++
			}
			return true
		})
		verify += time.Since(t0)

		if i > 0 {
			prev := sample[i-1]
			t0 = time.Now()
			iso.SubIso(prev.g, p.g)
			iso.SubIso(p.g, prev.g)
			qh += time.Since(t0)
			qhTests += 2
		}

		before := mallocs()
		res, err := s.cache.Execute(p.g, p.qt)
		after := mallocs()
		r.tally.check(err)
		if err == nil {
			class := classOf(res)
			allocs[class] += after - before
			calls[class]++
			sets = append(sets, res.Answers)
		}
	}
	n := float64(len(sample))
	v["graph.fingerprint_ns"] = float64(fingerprint) / n
	v["graph.parse_us"] = float64(parse) / n / 1e3
	v["ftv.filter_us"] = float64(filter) / n / 1e3
	v["ftv.candidates_per_query"] = float64(candidates) / n
	v["ftv.filter_precision"] = ratio(float64(answers), float64(candidates))
	v["ftv.base_run_us"] = float64(filter+verify) / n / 1e3
	v["iso.verify_us"] = ratio(float64(verify), float64(candidates)) / 1e3
	v["iso.tests_per_query"] = float64(candidates) / n
	v["iso.qh_test_us"] = ratio(float64(qh), float64(qhTests)) / 1e3
	v["core.allocs_per_exact_hit"] = ratio(float64(allocs[classExact]), float64(calls[classExact]))
	v["core.allocs_per_miss"] = ratio(float64(allocs[classMiss]), float64(calls[classMiss]))
	r.stamp.Samples["probed_queries"] = uint64(len(sample))

	bitsetProbes(sets, v)
	filterMutationProbes(s, v)
}

// bitsetProbes times set algebra on real answer sets, pairing each with its
// neighbour; the binary operations run on clones made outside the timer.
func bitsetProbes(sets []*bitset.Set, v map[string]float64) {
	if len(sets) < 2 {
		return
	}
	const rounds = 20
	clones := make([]*bitset.Set, len(sets))
	timed := func(prepare bool, op func(i int, other *bitset.Set)) float64 {
		var total time.Duration
		for round := 0; round < rounds; round++ {
			if prepare {
				for i, s := range sets {
					clones[i] = s.Clone()
				}
			}
			t0 := time.Now()
			for i := range sets {
				op(i, sets[(i+1)%len(sets)])
			}
			total += time.Since(t0)
		}
		return float64(total) / float64(rounds*len(sets))
	}
	v["bitset.clone_ns"] = timed(false, func(i int, _ *bitset.Set) { clones[i] = sets[i].Clone() })
	v["bitset.and_ns"] = timed(true, func(i int, o *bitset.Set) { clones[i].And(o) })
	v["bitset.or_ns"] = timed(true, func(i int, o *bitset.Set) { clones[i].Or(o) })
	v["bitset.andnot_ns"] = timed(true, func(i int, o *bitset.Set) { clones[i].AndNot(o) })
	visited := 0
	v["bitset.foreach_and_ns"] = timed(false, func(i int, o *bitset.Set) {
		sets[i].ForEachAnd(o, func(int) bool { visited++; return true })
	})
	total := 0
	for _, s := range sets {
		total += s.Bytes()
	}
	v["bitset.bytes_per_set"] = float64(total) / float64(len(sets))
}

// filterMutationProbes times the filter's own incremental maintenance on a
// method of its own, which no cache depends on.
func filterMutationProbes(s *system, v map[string]float64) {
	m := ftv.NewGGSXMethod(slices.Clone(s.dataset), ggsxLen)
	n := min(32, len(s.w.adds))
	var add, remove time.Duration
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		id, err := m.AddGraph(s.w.adds[i].g)
		add += time.Since(t0)
		if err == nil {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		t0 := time.Now()
		_ = m.RemoveGraph(id) // the id was just added; it is live
		remove += time.Since(t0)
	}
	v["ftv.add_graph_us"] = ratio(float64(add), float64(n)) / 1e3
	v["ftv.remove_graph_us"] = ratio(float64(remove), float64(len(ids))) / 1e3
}

// scratchDir is where a run keeps the one file it must write, the snapshot
// a lazy restore maps; it lies in the working directory and is removed with
// the file.
const scratchDir = ".bench_out"

// persistence saves and restores the cache as the workload left it, five
// times each way: the binary v3 snapshot eagerly and lazily (with the first
// exact hit after a lazy restore, which faults the answer body in), and the
// v2 text format.
func persistence(s *system, r *report) error {
	v := r.vals
	entries := s.cache.Entries()
	if len(entries) == 0 {
		return fmt.Errorf("persistence: the cache is empty")
	}
	const rounds = 5
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	timeIt := func(f func() error) (float64, error) {
		var samples []float64
		for i := 0; i < rounds; i++ {
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			samples = append(samples, ms(time.Since(t0)))
		}
		return median(samples), nil
	}
	restoreInto := func(data []byte) func() error {
		return func() error {
			fresh, err := core.New(s.method, s.ccfg)
			if err != nil {
				return err
			}
			return fresh.ReadState(bytes.NewReader(data))
		}
	}

	var v3, v2 bytes.Buffer
	var err error
	if v["core.save_ms"], err = timeIt(func() error { v3.Reset(); return s.cache.WriteState(&v3) }); err != nil {
		return fmt.Errorf("persistence: save: %w", err)
	}
	if v["core.save_v2_ms"], err = timeIt(func() error { v2.Reset(); return s.cache.WriteStateV2(&v2) }); err != nil {
		return fmt.Errorf("persistence: save v2: %w", err)
	}
	if v["core.restore_eager_ms"], err = timeIt(restoreInto(v3.Bytes())); err != nil {
		return fmt.Errorf("persistence: eager restore: %w", err)
	}
	if v["core.restore_v2_ms"], err = timeIt(restoreInto(v2.Bytes())); err != nil {
		return fmt.Errorf("persistence: v2 restore: %w", err)
	}
	v["core.snapshot_bytes_per_entry"] = float64(v3.Len()) / float64(len(entries))
	v["core.snapshot_v2_bytes_per_entry"] = float64(v2.Len()) / float64(len(entries))

	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(scratchDir, fmt.Sprintf("state-%d.gcs3", os.Getpid()))
	defer func() {
		os.Remove(path)
		os.Remove(scratchDir) // fails, rightly, while another run's file is in it
	}()
	if err := os.WriteFile(path, v3.Bytes(), 0o644); err != nil {
		return err
	}
	var lazy, firstHit []float64
	for i := 0; i < rounds; i++ {
		l, h, err := lazyRestore(s, path, entries[i*len(entries)/rounds])
		if err != nil {
			return fmt.Errorf("persistence: lazy restore: %w", err)
		}
		lazy = append(lazy, ms(l))
		firstHit = append(firstHit, float64(h)/1e3)
	}
	v["core.restore_lazy_ms"] = median(lazy)
	v["core.first_hit_after_lazy_us"] = median(firstHit)
	return nil
}

// lazyRestore maps the snapshot into a fresh cache and then re-executes one
// restored entry's query, which must be an exact hit and has to fault the
// answer body in from the file.
func lazyRestore(s *system, path string, e *core.Entry) (restore, firstHit time.Duration, err error) {
	fresh, err := core.New(s.method, s.ccfg)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	closer, err := fresh.RestoreStateLazy(path)
	restore = time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	defer closer.Close()
	t0 = time.Now()
	res, err := fresh.Execute(e.Graph, e.Type)
	firstHit = time.Since(t0)
	if err == nil && !res.ExactHit {
		err = fmt.Errorf("entry %d is not an exact hit after a lazy restore", e.ID)
	}
	return restore, firstHit, err
}

// serverProbes calls ServeHTTP directly for allocations per request, and
// streams batches of 256 queries through the running server.
func serverProbes(s *system, rc runConfig, r *report) {
	v := r.vals
	sample := s.w.patterns(everyNth(s.w.ops, probeStride/2, rc.sz.probes))
	var allocs uint64
	for _, p := range sample {
		req := httptest.NewRequest(http.MethodPost, "/api/query", bytes.NewReader(p.body))
		rec := httptest.NewRecorder()
		before := mallocs()
		s.handler.ServeHTTP(rec, req)
		allocs += mallocs() - before
		var err error
		if rec.Code != http.StatusOK {
			err = fmt.Errorf("ServeHTTP: status %d", rec.Code)
		}
		r.tally.check(err)
	}
	v["server.allocs_per_request"] = ratio(float64(allocs), float64(len(sample)))

	const batch = 256
	var c client
	var perItem []float64
	for round := 0; round < 3; round++ {
		items := s.w.patterns(everyNth(s.w.ops, 1+round, batch))
		var body bytes.Buffer
		body.WriteString(`{"workers":` + fmt.Sprint(rc.nproc) + `,"queries":[`)
		for i, p := range items {
			if i > 0 {
				body.WriteByte(',')
			}
			body.Write(p.body)
		}
		body.WriteString("]}")
		t0 := time.Now()
		err := overHTTP{s}.do(&c, http.MethodPost, "/api/query/batch?stream=1", body.Bytes(), http.StatusOK, -1)
		d := time.Since(t0)
		if err == nil {
			if lines := bytes.Count(c.buf.Bytes(), []byte("\n")); lines != len(items) {
				err = fmt.Errorf("streamed batch: %d lines for %d queries", lines, len(items))
			} else if bytes.Contains(c.buf.Bytes(), []byte(`"error"`)) {
				err = fmt.Errorf("streamed batch: an item failed")
			}
		}
		r.tally.check(err)
		if err == nil {
			perItem = append(perItem, float64(d)/float64(len(items))/1e3)
		}
	}
	v["server.batch_item_us"] = median(perItem)
}
