// Command gcbench regenerates the paper's evaluation artifacts (DESIGN.md
// §4): Figure 3 (The Query Journey), Figure 2(b) (The Workload Run),
// Figure 2(c) (cache replacement across policies), the §3.1.I policy
// competition, the §3.1.II speedup-versus-overhead study, the headline
// speedup run and the live-churn maintenance comparison.
//
// Usage:
//
//	gcbench -exp all
//	gcbench -exp fig3 -seed 2018
//	gcbench -exp policies -queries 2000
//	gcbench -exp overhead
//	gcbench -exp headline -dataset 1000 -queries 5000
//	gcbench -exp churn -dataset 150 -queries 400
//	gcbench -exp scaling                      # large tier: 10k graphs, 10k queries, GOMAXPROCS sweep
//	gcbench -exp scaling -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -cpuprofile and -memprofile capture pprof profiles of whichever
// experiments ran — the raw material for the hot-path memory discipline
// work (internal/core/doc.go). -exp scaling is deliberately NOT part of
// -exp all: it runs minutes of wall-clock by design.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"graphcache/internal/bench"
	"graphcache/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h printed usage; that is a clean exit
		}
		fmt.Fprintf(os.Stderr, "gcbench: %v\n", err)
		os.Exit(1)
	}
}

// run executes the selected experiments against args, writing reports to
// stdout. It is main minus the process plumbing, so tests can drive it
// directly.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gcbench", flag.ContinueOnError)
	var (
		exp        = fs.String("exp", "all", "experiment: fig3 | workloadrun | fig2c | policies | overhead | headline | sweeps | churn | memory | persist | scaling | all (scaling is excluded from all — it runs minutes by design; memory and persist cover only the default tier under all, both tiers when selected explicitly)")
		seed       = fs.Int64("seed", 2018, "random seed (all experiments are deterministic per seed)")
		queries    = fs.Int("queries", 1000, "workload size for policies/overhead/headline/churn (overrides the scaling tier's when set)")
		dataset    = fs.Int("dataset", 400, "dataset size for overhead/headline/churn (overrides the scaling tier's when set)")
		mutations  = fs.Int("mutations", 12, "churn: interleaved dataset mutations")
		workerList = fs.String("workers", "", "scaling: comma-separated worker counts; empty sweeps powers of two up to GOMAXPROCS")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile (after the selected experiments) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	known := map[string]bool{
		"fig3": true, "workloadrun": true, "fig2c": true, "policies": true,
		"overhead": true, "headline": true, "sweeps": true, "churn": true,
		"memory": true, "persist": true, "scaling": true, "all": true,
	}
	if !known[*exp] {
		return fmt.Errorf("unknown experiment %q", *exp)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// The heap profile is written after the experiments so it shows
		// what the runs left resident, not the startup state.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gcbench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "gcbench: memprofile: %v\n", err)
			}
		}()
	}

	if *exp == "scaling" {
		tier := bench.LargeTier()
		explicit := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if explicit["dataset"] {
			tier.DatasetSize = *dataset
		}
		if explicit["queries"] {
			tier.Queries = *queries
			tier.PoolSize = max(*queries/3, 8)
		}
		return runScaling(stdout, *seed, tier, *workerList)
	}
	runExp := func(name string, fn func() error) error {
		if *exp != "all" && *exp != name {
			return nil
		}
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(stdout)
		return nil
	}

	for _, step := range []struct {
		name string
		fn   func() error
	}{
		{"fig3", func() error { return runFig3(stdout, *seed) }},
		{"workloadrun", func() error { return runWorkload(stdout, *seed) }},
		{"fig2c", func() error { return runFig2c(stdout, *seed) }},
		{"policies", func() error { return runPolicies(stdout, *seed, *queries) }},
		{"overhead", func() error { return runOverhead(stdout, *seed, *dataset, *queries) }},
		{"headline", func() error { return runHeadline(stdout, *seed, *dataset, *queries) }},
		{"sweeps", func() error { return runSweeps(stdout, *seed, *queries) }},
		{"churn", func() error { return runChurn(stdout, *seed, *dataset, *queries, *mutations) }},
		{"memory", func() error { return runMemory(stdout, *seed, *exp == "memory") }},
		{"persist", func() error { return runPersist(stdout, *seed, *exp == "persist") }},
	} {
		if err := runExp(step.name, step.fn); err != nil {
			return err
		}
	}
	return nil
}

// runScaling drives the scaling workload tier through both engines
// over the GOMAXPROCS worker sweep — the experiment behind ROADMAP open
// item 1 ("make parallelism pay"). Pair with -cpuprofile/-memprofile to
// see where the large tier actually spends its time and allocations.
func runScaling(stdout io.Writer, seed int64, tier bench.ThroughputTier, workerList string) error {
	var workers []int
	if strings.TrimSpace(workerList) != "" {
		for _, f := range strings.Split(workerList, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &n); err != nil || n < 1 {
				return fmt.Errorf("bad worker count %q", f)
			}
			workers = append(workers, n)
		}
	}
	env := bench.CaptureEnvironment()
	cmp, err := bench.ParallelThroughputTier(seed, tier, workers)
	if err != nil {
		return err
	}
	t := stats.NewTable(fmt.Sprintf("EXP-SCALE · %s tier: %d mixed queries over %d graphs (GOMAXPROCS=%d, %d CPUs, %s)",
		cmp.Tier, cmp.Queries, cmp.DatasetSize, env.GOMAXPROCS, env.NumCPU, env.GoVersion),
		"workers", "serialized q/s", "sharded q/s", "speedup")
	for i, w := range cmp.WorkerCounts {
		t.AddRow(w,
			fmt.Sprintf("%.1f", cmp.Serialized[i].QPS),
			fmt.Sprintf("%.1f", cmp.Sharded[i].QPS),
			fmt.Sprintf("%.2f×", cmp.SpeedupAt(w)))
	}
	t.Render(stdout)
	fmt.Fprintln(stdout, "speedup = sharded/serialized.")
	if env.GOMAXPROCS == 1 {
		fmt.Fprintln(stdout, "note: GOMAXPROCS=1 — the sweep degenerates to a single point; scaling needs real cores.")
	}
	return nil
}

// runMemory reports the answer-set memory ledger — bytes/entry under the
// adaptive containers + interning against the dense-equivalent baseline,
// plus the intern hit rate. Under -exp all only the default tier runs
// (the large tier costs a full scaling-tier workload); -exp memory runs
// both, which is where the ISSUE-8 ≥40% reduction acceptance is checked.
func runMemory(stdout io.Writer, seed int64, full bool) error {
	tiers := []bench.ThroughputTier{bench.DefaultTier()}
	if full {
		tiers = append(tiers, bench.LargeTier())
	}
	t := stats.NewTable("EXP-MEM · Answer-set memory: adaptive containers + interning vs dense baseline",
		"tier", "entries", "distinct sets", "answer bytes", "bytes/entry", "dense/entry", "reduction", "intern hit rate")
	for _, tier := range tiers {
		r, err := bench.RunMemory(seed, tier)
		if err != nil {
			return err
		}
		t.AddRow(r.Tier, r.Entries, r.DistinctSets, stats.FormatBytes(int(r.AnswerBytes)),
			fmt.Sprintf("%.1f", r.BytesPerEntry),
			fmt.Sprintf("%.1f", r.DenseBytesPerEntry),
			fmt.Sprintf("%.1f%%", 100*r.Reduction),
			fmt.Sprintf("%.2f", r.InternHitRate))
	}
	t.Render(stdout)
	fmt.Fprintln(stdout, "reduction = 1 − answer/dense bytes; dense = one private ⌈|D|/64⌉-word set per entry.")
	return nil
}

// runPersist reports EXP-PERSIST: snapshot save/restore wall time and
// on-disk bytes of the binary GCS3 format against the v2 text format,
// eager and lazy. Under -exp all only the default tier runs; -exp
// persist also measures the large scaling tier.
func runPersist(stdout io.Writer, seed int64, full bool) error {
	tiers := []bench.ThroughputTier{bench.DefaultTier()}
	if full {
		tiers = append(tiers, bench.LargeTier())
	}
	t := stats.NewTable("EXP-PERSIST · Snapshot persistence: binary GCS3 (v3) vs text (v2)",
		"tier", "entries", "v2 bytes", "v3 bytes", "v2 save", "v3 save", "v2 restore", "v3 restore", "v3 lazy", "restore speedup", "lazy speedup")
	for _, tier := range tiers {
		r, err := bench.RunPersist(seed, tier)
		if err != nil {
			return err
		}
		t.AddRow(r.Tier, r.Entries, stats.FormatBytes(r.V2Bytes), stats.FormatBytes(r.V3Bytes),
			fmt.Sprintf("%.2fms", r.V2SaveMs), fmt.Sprintf("%.2fms", r.V3SaveMs),
			fmt.Sprintf("%.2fms", r.V2RestoreMs), fmt.Sprintf("%.2fms", r.V3RestoreMs),
			fmt.Sprintf("%.2fms", r.V3LazyRestoreMs),
			fmt.Sprintf("%.2f×", r.RestoreSpeedup), fmt.Sprintf("%.2f×", r.LazySpeedup))
	}
	t.Render(stdout)
	fmt.Fprintln(stdout, "restore speedup = v2/v3 eager; lazy = RestoreStateLazy to first-query readiness (answer bodies still on disk).")
	return nil
}

func runChurn(stdout io.Writer, seed int64, dataset, queries, mutations int) error {
	cmp, err := bench.RunChurnComparison(seed, dataset, queries, mutations)
	if err != nil {
		return err
	}
	t := stats.NewTable("EXP-CHURN · Exact maintenance vs drop-and-rebuild under live mutations",
		"strategy", "q/s", "dataset tests", "maintenance", "total", "exact hits", "avg filter maint", "inserts/rebuilds")
	row := func(name string, s bench.ChurnStats) {
		t.AddRow(name, fmt.Sprintf("%.1f", s.QPS), s.DatasetTests,
			s.MaintenanceTests, s.TotalTests(), s.ExactHits,
			s.AvgFilterMaintain().Round(time.Microsecond),
			fmt.Sprintf("%d/%d", s.FilterInserts, s.FilterRebuilds))
	}
	row("maintained", cmp.Maintained)
	row("drop+rebuild", cmp.Rebuild)
	t.Render(stdout)
	fmt.Fprintf(stdout, "%d queries, %d mutations (%d adds): maintenance saves %.1f%% of the sub-iso bill; answers byte-identical.\n",
		cmp.Queries, cmp.Mutations, cmp.Maintained.Adds, 100*cmp.TestReduction())
	return nil
}

func runSweeps(stdout io.Writer, seed int64, queries int) error {
	cap, err := bench.RunCapacitySweep(seed, queries, nil)
	if err != nil {
		return err
	}
	t := stats.NewTable("SWEEP · cache capacity", "capacity", "test-speedup", "time-speedup", "hit-rate")
	for _, p := range cap {
		t.AddRow(p.Value, p.Speedups.Tests, p.Speedups.Time, p.HitRate)
	}
	t.Render(stdout)

	win, err := bench.RunWindowSweep(seed, queries, nil)
	if err != nil {
		return err
	}
	t2 := stats.NewTable("SWEEP · admission window", "window", "test-speedup", "time-speedup", "hit-rate")
	for _, p := range win {
		t2.AddRow(p.Value, p.Speedups.Tests, p.Speedups.Time, p.HitRate)
	}
	t2.Render(stdout)

	bud, err := bench.RunHitBudgetSweep(seed, queries, nil)
	if err != nil {
		return err
	}
	t3 := stats.NewTable("SWEEP · sub/super hit budget", "budget", "test-speedup", "time-speedup", "hit-rate")
	for _, p := range bud {
		t3.AddRow(p.Value, p.Speedups.Tests, p.Speedups.Time, p.HitRate)
	}
	t3.Render(stdout)
	return nil
}

func runFig3(stdout io.Writer, seed int64) error {
	res, err := bench.RunFig3(seed)
	if err != nil {
		return err
	}
	t := stats.NewTable("EXP-F3 · The Query Journey (Figure 3)", "panel", "quantity", "value")
	t.AddRow("3(a)/(e)", "cache hits H (sub) / H' (super)", fmt.Sprintf("%d / %d", res.SubHits, res.SuperHits))
	t.AddRow("3(b)", "|C_M| Method M candidates", res.CM)
	t.AddRow("3(c)", "|S| answers for sure", res.S)
	t.AddRow("3(d)", "|S'| non-answers for sure", res.SPrime)
	t.AddRow("3(f)", "|C| GC candidates", res.C)
	t.AddRow("3(g)", "|R| sub-iso survivors", res.R)
	t.AddRow("3(h)", "|A| final answers", res.A)
	t.AddRow("—", "test speedup C_M/C (paper: 1.74)", fmt.Sprintf("%.2f", res.TestSpeedup))
	t.AddRow("—", "S member ids", fmt.Sprintf("%v", res.SureIDs))
	t.Render(stdout)
	return nil
}

func runWorkload(stdout io.Writer, seed int64) error {
	steps, c, err := bench.RunWorkload(seed, 10, "hd")
	if err != nil {
		return err
	}
	t := stats.NewTable("EXP-F2B · The Workload Run (Figure 2(b))", "query", "exact", "sub", "super", "hit%", "test-speedup")
	for _, s := range steps {
		t.AddRow(s.Index, s.ExactHit, s.SubHits, s.SuperHits, fmt.Sprintf("%.1f", s.HitPct), fmt.Sprintf("%.2f", s.TestSpeedup))
	}
	t.Render(stdout)
	snap := c.Stats()
	fmt.Fprintf(stdout, "cumulative: %d queries, %d tests executed, %d saved, speedup %.2f\n",
		snap.Queries, snap.TestsExecuted, snap.TestsSaved, snap.TestSpeedup())
	return nil
}

func runFig2c(stdout io.Writer, seed int64) error {
	rs, err := bench.RunReplacement(seed, nil)
	if err != nil {
		return err
	}
	t := stats.NewTable("EXP-F2C · Cache replacement across policies (Figure 2(c))", "policy", "kept", "evicted entry ids")
	for _, r := range rs {
		t.AddRow(r.Policy, r.Kept, fmt.Sprintf("%v", r.Evicted))
	}
	t.Render(stdout)
	return nil
}

func runPolicies(stdout io.Writer, seed int64, queries int) error {
	cells, err := bench.RunPolicyCompetition(seed, queries, nil)
	if err != nil {
		return err
	}
	t := stats.NewTable("EXP-I · Policy competition (§3.1.I)", "workload", "policy", "test-speedup", "time-speedup", "hit-rate")
	for _, c := range cells {
		t.AddRow(c.Workload, c.Policy,
			fmt.Sprintf("%.2f", c.Speedups.Tests),
			fmt.Sprintf("%.2f", c.Speedups.Time),
			fmt.Sprintf("%.2f", c.HitRate))
	}
	t.Render(stdout)
	fmt.Fprintln(stdout, "take-away (paper): when in doubt, use HD — best or on par with the best alternative.")
	return nil
}

func runOverhead(stdout io.Writer, seed int64, dataset, queries int) error {
	fs, err := bench.RunFeatureSize(seed, dataset, queries/2, 3)
	if err != nil {
		return err
	}
	t := stats.NewTable("EXP-II-A · FTV feature size +1 (§3.1.II)", "metric", "L=3", "L=4", "ratio/delta")
	t.AddRow("index bytes", stats.FormatBytes(fs.IndexBytesBase), stats.FormatBytes(fs.IndexBytesBigger),
		fmt.Sprintf("×%.2f (paper ≈ ×2)", fs.SpaceRatio))
	t.AddRow("avg query time", fs.AvgTimeBase, fs.AvgTimeBigger,
		fmt.Sprintf("−%.1f%% (paper ≈ −10%%)", 100*fs.TimeReduction))
	t.AddRow("avg |C_M|", fmt.Sprintf("%.1f", fs.AvgCandidatesBase), fmt.Sprintf("%.1f", fs.AvgCandidatesBigger), "")
	t.Render(stdout)

	oh, err := bench.RunGCOverhead(seed, dataset, queries, 50)
	if err != nil {
		return err
	}
	t2 := stats.NewTable("EXP-II-B · GC speedup vs space overhead (§3.1.II)", "metric", "value", "paper")
	t2.AddRow("FTV index bytes", stats.FormatBytes(oh.IndexBytes), "")
	t2.AddRow("GC cache bytes", stats.FormatBytes(oh.CacheBytes), "")
	t2.AddRow("memory ratio", fmt.Sprintf("%.3f", oh.MemoryRatio), "≈ 0.01")
	t2.AddRow("test speedup", fmt.Sprintf("%.2f×", oh.Speedups.Tests), "up to 40×")
	t2.AddRow("time speedup", fmt.Sprintf("%.2f×", oh.Speedups.Time), "up to 40×")
	t2.AddRow("hit rate", fmt.Sprintf("%.2f", oh.HitRate), "")
	t2.Render(stdout)
	return nil
}

func runHeadline(stdout io.Writer, seed int64, dataset, queries int) error {
	res, err := bench.RunHeadline(seed, dataset, queries)
	if err != nil {
		return err
	}
	t := stats.NewTable("EXP-HL · Headline speedup run", "metric", "value")
	t.AddRow("dataset graphs", res.DatasetSize)
	t.AddRow("queries", res.Queries)
	t.AddRow("aggregate test speedup", fmt.Sprintf("%.2f×", res.Speedups.Tests))
	t.AddRow("aggregate time speedup", fmt.Sprintf("%.2f×", res.Speedups.Time))
	t.AddRow("max per-query test speedup", fmt.Sprintf("%.2f× (paper: up to 40×)", res.MaxQuerySpeedup))
	t.AddRow("hit rate", fmt.Sprintf("%.2f", res.HitRate))
	t.AddRow("cache bytes / index bytes", fmt.Sprintf("%s / %s", stats.FormatBytes(res.CacheBytes), stats.FormatBytes(res.IndexBytes)))
	t.Render(stdout)
	return nil
}
