// Command workloadrun is the CLI rendition of the demo's Scenario II —
// The Workload Run (Figure 2(b) and 2(c)): it processes a workload through
// GraphCache, reporting per-query sub/super/exact hits and hit percentage,
// then compares which cached graphs each replacement policy evicts.
//
// With -throughput it instead drives a mixed workload through the batched
// worker-pool API (Cache.ExecuteAll), reporting queries/sec of the sharded
// engine against the serialized single-lock baseline at each worker count.
// Adding -assert-index also runs the indexed-vs-unindexed hit-detection
// comparison and exits non-zero unless the feature index strictly reduced
// hit-detection work (the `make bench-smoke` CI gate).
//
// With -churn it drives a mixed query/add/remove stream twice — once over
// one exactly-maintained cache, once dropping and rebuilding the cache at
// every dataset mutation — and reports the sub-iso bill of each strategy
// (-assert-churn turns the win into an exit code, the `make bench-json`
// gate). -bench-json FILE runs throughput and churn and writes both
// results to FILE for the CI perf-trajectory artifact.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
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
		fmt.Fprintf(os.Stderr, "workloadrun: %v\n", err)
		os.Exit(1)
	}
}

// run executes the command against args, writing reports to stdout. It is
// main minus the process plumbing, so tests can drive it directly.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("workloadrun", flag.ContinueOnError)
	var (
		seed        = fs.Int64("seed", 2018, "random seed")
		size        = fs.Int("size", 10, "workload size (demo: 10)")
		policy      = fs.String("policy", "hd", "replacement policy for the run")
		policies    = fs.String("policies", "lru,pop,pin,pinc,hd", "policies for the replacement comparison; 'none' to skip")
		throughput  = fs.Bool("throughput", false, "run the parallel-throughput comparison instead of the workload run")
		scale       = fs.String("scale", "default", "throughput mode: workload tier (default | large; large = 10k+ graphs, 10k+ zipf-skewed mixed queries)")
		datasetSz   = fs.Int("throughput-dataset", 200, "throughput mode: dataset size (overrides the tier's)")
		queries     = fs.Int("throughput-queries", 1000, "throughput mode: workload size (overrides the tier's)")
		workerList  = fs.String("workers", "", "throughput mode: comma-separated worker counts; empty sweeps powers of two up to GOMAXPROCS")
		assertIndex = fs.Bool("assert-index", false, "throughput mode: also compare indexed vs unindexed hit detection and fail unless the index strictly reduced work")
		churn       = fs.Bool("churn", false, "run the live-mutation comparison: exact cache maintenance vs drop-cache-and-rebuild over a mixed query/add/remove stream")
		churnDS     = fs.Int("churn-dataset", 150, "churn mode: initial dataset size")
		churnQs     = fs.Int("churn-queries", 400, "churn mode: query count")
		churnMuts   = fs.Int("churn-mutations", 12, "churn mode: interleaved dataset mutations (add-heavy: two adds per remove)")
		assertChurn = fs.Bool("assert-churn", false, "churn mode: fail unless the maintained cache strictly beat drop-and-rebuild")
		benchJSON   = fs.String("bench-json", "", "write the throughput and churn results to this JSON file (runs both modes)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Assertion flags must never be silently ignored: each belongs to one
	// mode, validated up front regardless of which mode actually runs.
	if *assertIndex && !*throughput {
		return fmt.Errorf("-assert-index requires -throughput")
	}
	if *assertChurn && !*churn && *benchJSON == "" {
		return fmt.Errorf("-assert-churn requires -churn or -bench-json")
	}
	// The tier named by -scale shapes the throughput workload; explicit
	// size flags override the tier's sizes (so the CI smoke gates keep
	// their historical tiny scales without naming a tier).
	tier, err := bench.TierByName(*scale)
	if err != nil {
		return err
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if explicit["throughput-dataset"] {
		tier.DatasetSize = *datasetSz
	}
	if explicit["throughput-queries"] {
		tier.Queries = *queries
		tier.PoolSize = max(*queries/3, 8)
	}
	if *benchJSON != "" {
		if *assertIndex || *churn || *throughput {
			return fmt.Errorf("-bench-json runs throughput and churn itself; combine it only with -assert-churn and the size flags")
		}
		return runBenchJSON(stdout, *benchJSON, *seed, tier, *workerList, *churnDS, *churnQs, *churnMuts, *assertChurn)
	}
	if *churn {
		if *throughput {
			return fmt.Errorf("-churn and -throughput are separate modes; use -bench-json to run both")
		}
		return runChurn(stdout, *seed, *churnDS, *churnQs, *churnMuts, *assertChurn)
	}
	if *throughput {
		if err := runThroughput(stdout, *seed, tier, *workerList); err != nil {
			return err
		}
		if *assertIndex {
			return runIndexSmoke(stdout, *seed, tier.DatasetSize, tier.Queries)
		}
		return nil
	}

	steps, c, err := bench.RunWorkload(*seed, *size, *policy)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "The Workload Run — %d queries under the %q policy\n", *size, *policy)
	fmt.Fprintln(stdout, strings.Repeat("=", 64))
	t := stats.NewTable("", "query", "hits (exact/sub/super)", "hit%", "test-speedup")
	for _, s := range steps {
		ex := 0
		if s.ExactHit {
			ex = 1
		}
		t.AddRow(s.Index, fmt.Sprintf("%d/%d/%d", ex, s.SubHits, s.SuperHits),
			fmt.Sprintf("%.1f%%", s.HitPct), fmt.Sprintf("%.2f", s.TestSpeedup))
	}
	t.Render(stdout)
	snap := c.Stats()
	fmt.Fprintf(stdout, "\ncumulative: %d tests executed, %d saved → speedup %.2f; %d cached graphs, %s resident\n",
		snap.TestsExecuted, snap.TestsSaved, snap.TestSpeedup(), c.Len(), stats.FormatBytes(c.Bytes()))
	answerPerEntry := 0.0
	if n := c.Len(); n > 0 {
		answerPerEntry = float64(snap.AnswerBytes) / float64(n)
	}
	internRate := 0.0
	if total := snap.InternHits + snap.InternMisses; total > 0 {
		internRate = float64(snap.InternHits) / float64(total)
	}
	fmt.Fprintf(stdout, "answer sets: %s pooled (%.1f bytes/entry), intern hit rate %.2f\n",
		stats.FormatBytes(int(snap.AnswerBytes)), answerPerEntry, internRate)

	if *policies == "none" {
		return nil
	}
	names := strings.Split(*policies, ",")
	rs, err := bench.RunReplacement(*seed, names)
	if err != nil {
		return fmt.Errorf("replacement: %w", err)
	}
	fmt.Fprintln(stdout, "\nCache replacement comparison (Figure 2(c)): identical workload, different victims")
	for _, r := range rs {
		fmt.Fprintf(stdout, "%-5s evicted %2d: %v\n", r.Policy, len(r.Evicted), r.Evicted)
	}
	fmt.Fprintln(stdout, "\ndifferent policies cache out different graphs — each embodies a different utility trade-off.")
	return nil
}

// runThroughput renders the parallel-throughput comparison as a table.
func runThroughput(stdout io.Writer, seed int64, tier bench.ThroughputTier, workerList string) error {
	workers, err := parseWorkers(workerList)
	if err != nil {
		return err
	}
	cmp, err := bench.ParallelThroughputTier(seed, tier, workers)
	if err != nil {
		return err
	}
	env := bench.CaptureEnvironment()
	fmt.Fprintf(stdout, "Parallel throughput [%s tier] — %d mixed queries over %d molecules (GOMAXPROCS=%d, %d CPUs)\n",
		cmp.Tier, cmp.Queries, cmp.DatasetSize, env.GOMAXPROCS, env.NumCPU)
	fmt.Fprintln(stdout, strings.Repeat("=", 64))
	t := stats.NewTable("", "workers", "serialized q/s", "sharded q/s", "speedup")
	for i, w := range cmp.WorkerCounts {
		t.AddRow(w,
			fmt.Sprintf("%.1f", cmp.Serialized[i].QPS),
			fmt.Sprintf("%.1f", cmp.Sharded[i].QPS),
			fmt.Sprintf("%.2f×", cmp.SpeedupAt(w)))
	}
	t.Render(stdout)
	fmt.Fprintln(stdout, "\nserialized = one global lock per query (pre-sharding engine);")
	fmt.Fprintln(stdout, "sharded    = the default lock-striped kernel.")
	fmt.Fprintln(stdout, "speedup = sharded/serialized.")
	return nil
}

// runChurn renders the exact-maintenance-vs-rebuild comparison; with
// assert it errors unless the maintained cache strictly won the total
// sub-iso bill.
func runChurn(stdout io.Writer, seed int64, datasetSize, queries, mutations int, assert bool) error {
	cmp, err := bench.RunChurnComparison(seed, datasetSize, queries, mutations)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Live dataset churn — %d queries, %d mutations (%d adds / %d removes) over %d molecules\n",
		cmp.Queries, cmp.Mutations, cmp.Maintained.Adds, cmp.Maintained.Removes, cmp.DatasetSize)
	fmt.Fprintln(stdout, strings.Repeat("=", 64))
	t := stats.NewTable("", "strategy", "q/s", "dataset tests", "maintenance tests", "total tests", "exact hits", "tests saved")
	row := func(name string, s bench.ChurnStats) {
		t.AddRow(name, fmt.Sprintf("%.1f", s.QPS), s.DatasetTests, s.MaintenanceTests,
			s.TotalTests(), s.ExactHits, s.TestsSaved)
	}
	row("maintained", cmp.Maintained)
	row("drop+rebuild", cmp.Rebuild)
	t.Render(stdout)
	fmt.Fprintln(stdout, "\nmutation latency:")
	lt := stats.NewTable("", "strategy", "avg add", "avg filter maint", "avg remove", "filter inserts", "filter rebuilds", "max addition log")
	lrow := func(name string, s bench.ChurnStats) {
		lt.AddRow(name, s.AvgAddLatency().Round(time.Microsecond), s.AvgFilterMaintain().Round(time.Microsecond),
			s.AvgRemoveLatency().Round(time.Microsecond),
			s.FilterInserts, s.FilterRebuilds, s.MaxAdditionLog)
	}
	lrow("maintained", cmp.Maintained)
	lrow("drop+rebuild", cmp.Rebuild)
	lt.Render(stdout)
	fmt.Fprintf(stdout, "\nanswers cross-checked byte-identical between both strategies after every mutation.\n")
	fmt.Fprintf(stdout, "maintained cache spends %.1f%% fewer sub-iso tests than dropping the cache at every mutation;\n",
		100*cmp.TestReduction())
	fmt.Fprintf(stdout, "'avg filter maint' isolates identical work in both strategies: the incremental O(graph)\n")
	fmt.Fprintf(stdout, "GGSX insert vs the O(dataset) rebuild. 'avg add' is each strategy's whole mutation path\n")
	fmt.Fprintf(stdout, "(the maintained side additionally reconciles every cached answer set eagerly).\n")
	if assert && !cmp.MaintainedWins() {
		return fmt.Errorf("churn assertion failed: maintained %d total tests vs rebuild %d",
			cmp.Maintained.TotalTests(), cmp.Rebuild.TotalTests())
	}
	return nil
}

// runBenchJSON runs the throughput, large-tier scaling and churn
// comparisons and writes all three to a JSON file — the perf-trajectory
// artifact CI uploads per PR — together with the worker sweep and the
// runtime environment (GOMAXPROCS, CPU count, Go version), so a flat
// scaling curve measured in a 1-CPU container is distinguishable from a
// real regression. With assertChurn it additionally fails unless the
// maintained cache won.
func runBenchJSON(stdout io.Writer, path string, seed int64, tier bench.ThroughputTier, workerList string, churnDS, churnQs, churnMuts int, assertChurn bool) error {
	workers, err := parseWorkers(workerList)
	if err != nil {
		return err
	}
	if len(workers) == 0 {
		workers = bench.DefaultThroughputWorkers()
	}
	tp, err := bench.ParallelThroughputTier(seed, tier, workers)
	if err != nil {
		return fmt.Errorf("throughput: %w", err)
	}
	// The scaling section always measures the large tier; when -scale
	// already selected it, the run is not repeated.
	scaling := tp
	if tier.Name != "large" {
		if scaling, err = bench.ParallelThroughputTier(seed, bench.LargeTier(), workers); err != nil {
			return fmt.Errorf("scaling: %w", err)
		}
	}
	churn, err := bench.RunChurnComparison(seed, churnDS, churnQs, churnMuts)
	if err != nil {
		return fmt.Errorf("churn: %w", err)
	}
	// The memory section tracks the answer-set bytes/entry trajectory on
	// the same tier the throughput section ran plus the large scaling
	// tier — the ISSUE-8 acceptance surface (≥40% reduction vs dense).
	var memory []*bench.MemoryResult
	for _, mt := range []bench.ThroughputTier{tier, bench.LargeTier()} {
		m, err := bench.RunMemory(seed, mt)
		if err != nil {
			return fmt.Errorf("memory (%s): %w", mt.Name, err)
		}
		memory = append(memory, m)
	}
	// The persist section tracks snapshot save/restore wall time and bytes
	// (binary GCS3 vs text v2, eager and lazy restore) on the throughput
	// tier — the ISSUE-10 acceptance surface (v3 restore < v2).
	persist, err := bench.RunPersist(seed, tier)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	report := struct {
		Seed       int64                       `json:"seed"`
		Env        bench.Environment           `json:"env"`
		Workers    []int                       `json:"workers"`
		Throughput *bench.ThroughputComparison `json:"throughput"`
		Scaling    *bench.ThroughputComparison `json:"scaling"`
		Churn      *bench.ChurnComparison      `json:"churn"`
		Memory     []*bench.MemoryResult       `json:"memory"`
		Persist    *bench.PersistResult        `json:"persist"`
	}{seed, bench.CaptureEnvironment(), workers, tp, scaling, churn, memory, persist}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote throughput (%d worker counts), %s-tier scaling (%d graphs / %d queries), churn (%d queries, %d mutations, %.1f%% test reduction), memory (%.1f%% answer-byte reduction on the %s tier) and persist (v3 restore %.2f× faster than v2, lazy %.2f×) results to %s\n",
		len(workers), scaling.Tier, scaling.DatasetSize, scaling.Queries,
		churn.Queries, churn.Mutations, 100*churn.TestReduction(),
		100*memory[len(memory)-1].Reduction, memory[len(memory)-1].Tier,
		persist.RestoreSpeedup, persist.LazySpeedup, path)
	if assertChurn && !churn.MaintainedWins() {
		return fmt.Errorf("churn assertion failed: maintained %d total tests vs rebuild %d",
			churn.Maintained.TotalTests(), churn.Rebuild.TotalTests())
	}
	return nil
}

// parseWorkers parses a comma-separated worker-count list, shared by the
// throughput and bench-json paths. An empty list means "let the
// experiment sweep up to GOMAXPROCS" (bench.DefaultThroughputWorkers).
func parseWorkers(workerList string) ([]int, error) {
	if strings.TrimSpace(workerList) == "" {
		return nil, nil
	}
	var workers []int
	for _, f := range strings.Split(workerList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad worker count %q", f)
		}
		workers = append(workers, n)
	}
	return workers, nil
}

// runIndexSmoke renders the indexed-vs-unindexed hit-detection comparison
// and errors unless the index strictly reduced work.
func runIndexSmoke(stdout io.Writer, seed int64, datasetSize, queries int) error {
	cmp, err := bench.RunIndexComparison(seed, datasetSize, queries)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nHit-detection index — %d mixed queries over %d molecules (PIN policy)\n", cmp.Queries, datasetSize)
	fmt.Fprintln(stdout, strings.Repeat("=", 64))
	t := stats.NewTable("", "engine", "dominance merges", "cache-side iso tests", "index-pruned")
	t.AddRow("unindexed", cmp.Unindexed.HitFullChecks, cmp.Unindexed.HitDetectionTests, cmp.Unindexed.HitIndexPruned)
	t.AddRow("indexed", cmp.Indexed.HitFullChecks, cmp.Indexed.HitDetectionTests, cmp.Indexed.HitIndexPruned)
	t.Render(stdout)
	fmt.Fprintln(stdout, "\nanswers cross-checked byte-identical between both engines.")
	if !cmp.Reduced() {
		return fmt.Errorf("index assertion failed: indexed merges %d / iso %d vs unindexed merges %d / iso %d, pruned %d",
			cmp.Indexed.HitFullChecks, cmp.Indexed.HitDetectionTests,
			cmp.Unindexed.HitFullChecks, cmp.Unindexed.HitDetectionTests, cmp.Indexed.HitIndexPruned)
	}
	fmt.Fprintln(stdout, "index assertion passed: strictly fewer merges, no extra iso tests, pruning active.")
	return nil
}
