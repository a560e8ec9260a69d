package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"
)

// report is everything one run produced: the metric values by name, the op
// tally, and the stamp that says what was measured and where.
type report struct {
	vals  map[string]float64
	tally tally
	stamp stamp
}

// stamp makes a result legible on its own: environment, inputs, how much
// was measured, and anything that makes the numbers less comparable.
type stamp struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      float64            `json:"seconds"`
	Scale        float64            `json:"scale"`
	Trace        bool               `json:"trace"`
	NumCPU       int                `json:"nproc"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	GoVersion    string             `json:"go_version"`
	Commit       string             `json:"commit"`
	OpsAttempted int64              `json:"ops_attempted"`
	OpsFailed    int64              `json:"ops_failed"`
	FirstError   string             `json:"first_error,omitempty"`
	TimedSeconds float64            `json:"timed_seconds"`
	InstanceQPS  []float64          `json:"instance_qps,omitempty"`
	Samples      map[string]uint64  `json:"samples"`
	Notes        map[string]float64 `json:"notes,omitempty"`
	Warnings     []string           `json:"warnings,omitempty"`
}

func (r *report) warn(format string, args ...any) {
	r.stamp.Warnings = append(r.stamp.Warnings, fmt.Sprintf(format, args...))
}

// timedSpec is the timed phase of the workload: its op sequence from first
// to last, mutations where the workload has them.
func timedSpec(s *system, rc runConfig, clients int) phaseSpec {
	return phaseSpec{seq: s.w.ops, clients: clients, nproc: rc.nproc, mutEvery: s.w.mutEvery}
}

// measureEndToEnd is the untraced run: five times over, set the system up
// (setup_s), issue the workload's op sequence once with nproc clients and,
// outside every timer, add graphs to the warm cache in a burst; then, on the
// last instance, the heap reading and the answer oracle.
func measureEndToEnd(rc runConfig) (*report, error) {
	r := &report{vals: map[string]float64{}}
	r.stamp.Samples = map[string]uint64{}
	var sys *system
	var setups, qps, p50, p99, saved []float64
	var adds samples
	for i := 0; i < instances; i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		runtime.GC() // the previous instance is not this one's to collect
		t0 := time.Now()
		var err error
		if sys, err = setUp(rc, i == instances-1, &r.tally); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())

		sp := timedSpec(sys, rc, rc.nproc)
		sp.deadline = time.Duration(3*rc.seconds/instances*float64(time.Second)) + time.Second
		out := runPhase(sys, sp)
		r.tally.add(out)
		if out.cutShort {
			r.warn("instance %d stopped at its deadline after %d of %d ops: this machine is too slow for the op counts", i, out.ops, len(sp.seq))
		}
		r.stamp.TimedSeconds += out.wall.Seconds()
		r.stamp.Samples["query"] += out.lat.n
		qps = append(qps, out.qps())
		p50 = append(p50, out.lat.quantile(0.50)/1e3)
		p99 = append(p99, out.lat.quantile(0.99)/1e3)
		tests := float64(out.after.TestsSaved - out.before.TestsSaved)
		saved = append(saved, ratio(tests, tests+float64(out.after.TestsExecuted-out.before.TestsExecuted)))
		adds = append(adds, out.add...)

		if i == instances-1 {
			// The benchmark's own pattern pool is not the system's memory.
			r.vals["heap_mb"] = float64(heapAfterGC()-sys.poolBytes) / 1e6
		}
		// The three in-process workloads never mutate while timed; what a
		// graph added to their warm cache costs is measured here, afterwards.
		if sys.w.mutEvery == 0 {
			adds = append(adds, mutationBurst(sys, rc.sz.burst, &r.tally).add...)
		}
	}
	defer sys.close()
	r.sizingGuard(rc.seconds)
	r.stamp.InstanceQPS = qps
	r.vals["setup_s"] = median(setups)
	r.vals["throughput_qps"] = median(qps)
	r.vals["query_p50_us"] = median(p50)
	r.vals["query_p99_us"] = median(p99)
	r.vals["tests_saved_frac"] = median(saved)
	r.stamp.Samples["add_graph"] = uint64(len(adds))
	r.vals["add_graph_p50_us"] = adds.quantile(0.50) / 1e3

	oracle(sys, rc, &r.tally)
	return r, nil
}

// sizingGuard warns, without failing, when the machine makes the run measure
// something else than intended: the op counts are sized for timed phases of
// about rc.seconds in all.
func (r *report) sizingGuard(want float64) {
	if got := r.stamp.TimedSeconds; got < 0.6*want || got > 1.6*want {
		r.warn("the timed phases took %.1f s, sized for %.1f s: this machine or commit is much faster or slower than the one the op counts were fixed on", got, want)
	}
	if n := r.stamp.Samples["query"] / instances; n < 1000 {
		r.warn("only %d query samples per instance: fewer than ten lie beyond p99", n)
	}
}

// burstOut is the post-phase mutation burst: in-process adds and removes
// against the cache as the workload left it.
type burstOut struct {
	add, remove      samples
	maintenanceTests int64
}

func mutationBurst(s *system, n int, tl *tally) *burstOut {
	var b burstOut
	var c client
	before := s.cache.Stats().MaintenanceTests
	for i := 0; i < 2*n; i++ {
		t0 := time.Now()
		isAdd, err := s.mutate(inProcess{s}, &c)
		d := int64(time.Since(t0))
		tl.check(err)
		switch {
		case err != nil:
		case isAdd:
			b.add.record(d)
		default:
			b.remove.record(d)
		}
	}
	b.maintenanceTests = s.cache.Stats().MaintenanceTests - before
	return &b
}

// oracle re-issues a seeded 2 % sample (at least 500, at most 2000) of the
// timed phase's ops, through the same target, and compares every answer set
// with the uncached Method.Run on the same dataset view. It runs after the
// timed phase, so the dataset is the final mutated one and nothing else is
// mutating it. A mismatch is a failed op.
func oracle(s *system, rc runConfig, tl *tally) {
	n := min(max(len(s.w.ops)/50, 500), 2000)
	rng := rand.New(rand.NewSource(rc.seed + 7))
	sample := make([]uint32, n)
	for i := range sample {
		sample[i] = s.w.ops[rng.Intn(len(s.w.ops))]
	}
	parts := make([]tally, rc.nproc)
	var wg sync.WaitGroup
	for k := range parts {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var c client
			want := map[uint32][]int{}
			for i := k; i < n; i += rc.nproc {
				p := &s.w.pool[sample[i]]
				if _, err := s.tgt.query(&c, p, -1); err != nil {
					parts[k].check(err)
					continue
				}
				got, err := c.answers()
				if err != nil {
					parts[k].check(err)
					continue
				}
				w, ok := want[sample[i]]
				if !ok {
					w = s.method.Run(p.g, p.qt).Answers.Indices()
					want[sample[i]] = w
				}
				if !slices.Equal(got, w) {
					err = fmt.Errorf("oracle: pattern %d: cache answered %d graphs, Method.Run %d", sample[i], len(got), len(w))
				}
				parts[k].check(err)
			}
		}(k)
	}
	wg.Wait()
	for _, p := range parts {
		tl.merge(p.attempted, p.failed, p.firstErr)
	}
}

// measureLayers is the traced run. Phase A issues the op sequence of one
// untraced instance, untraced, with nproc clients, and gives the class mix,
// the class latencies and the counter ratios. Phases B and C replay its
// first ops (at most tracedOpsCap) with one client, B untraced and C with
// spans on: B is the base of scale_n_over_1, C against B is trace_overhead_frac.
// Then, on C's system: the direct layer probes, persistence, the mutation
// burst, the server probes, the sweeps of the workload that owns them, and
// the oracle.
func measureLayers(rc runConfig, traceOut string) (*report, error) {
	r := &report{vals: map[string]float64{}}
	v := r.vals

	sysA, err := setUp(rc, true, &r.tally)
	if err != nil {
		return nil, err
	}
	v["ftv.index_build_s"] = sysA.indexBuild.Seconds()
	v["ftv.index_mb"] = float64(sysA.indexBytes) / 1e6
	var warm bytes.Buffer // the warmed cache, for the alternatives sweep
	if err := sysA.cache.WriteState(&warm); err != nil {
		sysA.close()
		return nil, fmt.Errorf("snapshot of the warm cache: %w", err)
	}
	a := runPhase(sysA, timedSpec(sysA, rc, rc.nproc))
	r.tally.add(a)
	r.stamp.TimedSeconds = a.wall.Seconds()
	r.classMetrics(a)
	r.counterMetrics(sysA, a)
	sysA.close()

	// B and C replay A's first ops with one client each, untraced and
	// traced, on two fresh set-ups and in alternating chunks, so that a slow
	// spell of the machine falls on both; each ratio is the median over the
	// chunks.
	prefix := min(len(sysA.w.ops), rc.sz.tracedOpsCap)
	sysB, err := setUp(rc, false, &r.tally)
	if err != nil {
		return nil, err
	}
	defer sysB.close()
	sys, err := setUp(rc, false, &r.tally)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	tr := newTracer(sys, prefix)
	const chunks = 5
	var untraced, traced, kept []float64
	for j := 0; j < chunks; j++ {
		sp := timedSpec(sysB, rc, 1)
		sp.from, sp.maxOps = j*(prefix/chunks), prefix/chunks
		b := runPhase(sysB, sp)
		sys.tr.Store(tr)
		c := runPhase(sys, sp)
		sys.tr.Store(nil)
		r.tally.add(b)
		r.tally.add(c)
		untraced = append(untraced, b.qps())
		traced = append(traced, c.qps())
		kept = append(kept, ratio(c.qps(), b.qps()))
	}
	v["core.scale_n_over_1"] = ratio(a.qps(), median(untraced))
	v["trace_overhead_frac"] = 1 - median(kept)
	sum := tr.finish()
	v["server.handler_us"] = sum.handlerUs
	v["server.overhead_us"] = sum.overheadUs
	v["server.transport_us"] = sum.transportUs
	v["core.turn_extra_us"] = sum.turnExtraUs
	r.stamp.Samples["traced_ops"] = uint64(len(tr.ops))
	r.stamp.Samples["spans"] = uint64(len(tr.spans))
	r.stamp.Samples["turned_misses"] = uint64(sum.turnedMisses)
	r.stamp.Notes = map[string]float64{
		"qps_nproc_clients": a.qps(), "qps_one_client": median(untraced), "qps_one_client_traced": median(traced),
	}
	if traceOut != "" {
		if err := tr.writeJSONL(traceOut); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}

	layerProbes(sys, r)
	if err := persistence(sys, r); err != nil {
		return nil, err
	}
	burst := mutationBurst(sys, rc.sz.burst, &r.tally)
	v["core.add_graph_p50_us"] = burst.add.quantile(0.5) / 1e3
	v["core.remove_graph_p50_us"] = burst.remove.quantile(0.5) / 1e3
	v["core.maintenance_tests_per_add"] = ratio(float64(burst.maintenanceTests), float64(len(burst.add)))
	if sys.w.http {
		serverProbes(sys, rc, r)
	}
	switch rc.workload {
	case containmentMix:
		if err := capacitySweep(sys, rc, r); err != nil {
			return nil, err
		}
		err = engineSweep(sys, rc, warm.Bytes(), r)
	case daemonChurn:
		err = reconcileSweep(sys, rc, warm.Bytes(), r)
	}
	if err != nil {
		return nil, err
	}
	oracle(sys, rc, &r.tally)
	return r, nil
}

// classMetrics classifies the untraced phase's own client-side samples.
func (r *report) classMetrics(o *phaseOut) {
	v := r.vals
	r.stamp.Samples = map[string]uint64{"query": o.lat.n}
	for class, name := range [numClasses]string{"exact", "subsuper", "miss"} {
		h := &o.class[class]
		r.stamp.Samples[name] = h.n
		v["core."+name+"_frac"] = ratio(float64(h.n), float64(o.lat.n))
		v["core."+name+"_p50_us"] = h.quantile(0.50) / 1e3
		v["core."+name+"_p99_us"] = h.quantile(0.99) / 1e3
	}
	r.stamp.Samples["during_mutation"] = o.duringMut.n
	v["core.query_p99_during_mutation_us"] = o.duringMut.quantile(0.99) / 1e3
	if o.reqBytes > 0 {
		v["server.request_bytes_per_query"] = ratio(float64(o.reqBytes), float64(o.ops))
		v["server.response_bytes_per_query"] = ratio(float64(o.respBytes), float64(o.ops))
	}
}

// counterMetrics turns the cache's own counters across the phase into
// per-query ratios. The three stage clocks are set against the clients'
// busy time, so other_share is everything no stage clock covers: probe,
// signature, algebra, crediting, admission, window turns, eviction — and
// over HTTP the server and the transport too.
func (r *report) counterMetrics(s *system, o *phaseOut) {
	v := r.vals
	b, a := o.before, o.after
	queries := float64(o.lat.n)
	busy := float64(o.busy)
	filter := float64(a.FilterTime - b.FilterTime)
	hit := float64(a.HitTime - b.HitTime)
	verify := float64(a.VerifyTime - b.VerifyTime)
	v["core.filter_share"] = ratio(filter, busy)
	v["core.hit_share"] = ratio(hit, busy)
	v["core.verify_share"] = ratio(verify, busy)
	v["core.other_share"] = 1 - ratio(filter+hit+verify, busy)

	scanned := float64(a.HitScanEntries - b.HitScanEntries)
	pruned := float64(a.HitIndexPruned - b.HitIndexPruned)
	isoTests := float64(a.HitDetectionTests - b.HitDetectionTests)
	v["core.hit_scan_entries_per_query"] = ratio(scanned, queries)
	v["core.hit_full_checks_per_query"] = ratio(float64(a.HitFullChecks-b.HitFullChecks), queries)
	v["core.hit_index_pruned_frac"] = ratio(pruned, scanned+pruned)
	v["core.hit_iso_tests_per_query"] = ratio(isoTests, queries)
	v["core.hit_iso_useful_frac"] = ratio(float64(a.SubHits+a.SuperHits-b.SubHits-b.SuperHits), isoTests)
	v["core.admissions_per_kq"] = 1e3 * ratio(float64(a.Admissions-b.Admissions), queries)
	v["core.evictions_per_kq"] = 1e3 * ratio(float64(a.Evictions-b.Evictions), queries)
	v["core.window_turns_per_kq"] = 1e3 * ratio(float64(a.WindowTurns-b.WindowTurns), queries)
	internHits := float64(a.InternHits - b.InternHits)
	v["core.intern_hit_frac"] = ratio(internHits, internHits+float64(a.InternMisses-b.InternMisses))
	v["core.bytes_per_entry"] = ratio(float64(s.cache.Bytes()), float64(s.cache.Len()))
}

// environment fills the part of the stamp that does not depend on the run.
func (r *report) environment(rc runConfig, scale float64, traced bool) {
	st := &r.stamp
	st.Workload, st.Seed, st.Seconds, st.Scale, st.Trace = rc.workload, rc.seed, rc.seconds, scale, traced
	st.NumCPU, st.GOMAXPROCS, st.GoVersion = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	st.Commit = commit()
	st.OpsAttempted, st.OpsFailed = r.tally.attempted, r.tally.failed
	if r.tally.firstErr != nil {
		st.FirstError = r.tally.firstErr.Error()
	}
}
