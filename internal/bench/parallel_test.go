package bench

import (
	"runtime"
	"testing"

	"graphcache/internal/core"
	"graphcache/internal/ftv"
	"graphcache/internal/gen"
)

// TestParallelThroughputRuns pins the experiment's shape: every requested
// worker count is measured for both engines over the same workload,
// and every query completes.
func TestParallelThroughputRuns(t *testing.T) {
	cmp, err := ParallelThroughput(7, 40, 60, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Serialized) != 2 || len(cmp.Sharded) != 2 {
		t.Fatalf("points: %d serialized, %d sharded, want 2 each", len(cmp.Serialized), len(cmp.Sharded))
	}
	for i, w := range cmp.WorkerCounts {
		for _, p := range []ThroughputPoint{cmp.Serialized[i], cmp.Sharded[i]} {
			if p.Workers != w || p.Queries != 60 || p.QPS <= 0 {
				t.Errorf("bad point %+v for workers=%d", p, w)
			}
		}
	}
	if cmp.SpeedupAt(4) <= 0 {
		t.Error("speedup not computed")
	}
	if cmp.SpeedupAt(99) != 0 {
		t.Error("unknown worker count should report 0")
	}
}

// TestShardedScalesPastSerialized is the acceptance gate for the sharding
// refactor: at 8 workers the sharded engine must deliver ≥2× the
// serialized baseline's queries/sec on the mixed workload. A wall-clock
// ratio is only meaningful with real hardware parallelism and an
// undistorted scheduler, so the assertion arms only on ≥4 CPUs without
// the race detector; otherwise the run still executes both engines end
// to end and logs the measured ratio.
func TestShardedScalesPastSerialized(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement skipped in -short")
	}
	cmp, err := ParallelThroughput(2018, 100, 200, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	speedup := cmp.SpeedupAt(8)
	t.Logf("8 workers: serialized %.1f q/s, sharded %.1f q/s, speedup %.2f× (GOMAXPROCS=%d, race=%v)",
		cmp.Serialized[0].QPS, cmp.Sharded[0].QPS, speedup, runtime.GOMAXPROCS(0), raceEnabled)
	if raceEnabled {
		t.Skip("race detector distorts scheduling; not asserting the 2× scaling gate")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("%d CPUs: not enough hardware parallelism to assert the 2× scaling gate", runtime.GOMAXPROCS(0))
	}
	if speedup < 2 {
		t.Errorf("sharded engine delivers %.2f× the serialized baseline at 8 workers, want ≥2×", speedup)
	}
}

// The default worker sweep must start at the sequential floor, rise
// strictly, and top out exactly at GOMAXPROCS — never past the hardware.
func TestDefaultThroughputWorkersSweep(t *testing.T) {
	ws := DefaultThroughputWorkers()
	if len(ws) == 0 || ws[0] != 1 {
		t.Fatalf("sweep must start at 1 worker: %v", ws)
	}
	maxW := runtime.GOMAXPROCS(0)
	if ws[len(ws)-1] != maxW {
		t.Errorf("sweep must end at GOMAXPROCS=%d: %v", maxW, ws)
	}
	for i := 1; i < len(ws); i++ {
		if ws[i] <= ws[i-1] || ws[i] > maxW {
			t.Fatalf("sweep must rise strictly and stay within GOMAXPROCS: %v", ws)
		}
	}
}

// TierByName resolves the -scale flag values; the large tier must hit
// the scaling floor the ROADMAP asks for (10k+ graphs, 10k+ queries,
// zipf-skewed repeats).
func TestTierByName(t *testing.T) {
	for _, name := range []string{"", "default"} {
		tier, err := TierByName(name)
		if err != nil || tier.Name != "default" {
			t.Fatalf("TierByName(%q) = %+v, %v", name, tier, err)
		}
	}
	large, err := TierByName("large")
	if err != nil {
		t.Fatal(err)
	}
	if large.DatasetSize < 10000 || large.Queries < 10000 {
		t.Errorf("large tier %d graphs / %d queries, want ≥10k each", large.DatasetSize, large.Queries)
	}
	if large.PoolSize >= large.Queries || large.ZipfS <= 1 {
		t.Errorf("large tier must draw zipf-skewed repeats from a smaller pool: %+v", large)
	}
	if _, err := TierByName("galactic"); err == nil {
		t.Error("unknown tier must error")
	}
}

// A custom tier's identity must flow through to the comparison so the
// JSON artifact is self-describing.
func TestParallelThroughputTierStampsIdentity(t *testing.T) {
	tier := ThroughputTier{Name: "mini", DatasetSize: 30, Queries: 40, PoolSize: 12, ZipfS: 1.2, Rounds: 1}
	cmp, err := ParallelThroughputTier(5, tier, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Tier != "mini" || cmp.DatasetSize != 30 || cmp.Queries != 40 {
		t.Errorf("comparison identity = %q/%d/%d, want mini/30/40", cmp.Tier, cmp.DatasetSize, cmp.Queries)
	}
	env := CaptureEnvironment()
	if env.GOMAXPROCS < 1 || env.NumCPU < 1 || env.GoVersion == "" {
		t.Errorf("bad environment snapshot: %+v", env)
	}
}

// benchThroughput drives one engine configuration for b.N batches.
func benchThroughput(b *testing.B, serialized bool, workers int) {
	dataset := MoleculeDataset(2018, 100)
	method := ftv.NewGGSXMethod(dataset, 3)
	w, err := gen.NewWorkload(newRand(2018+7), dataset, gen.WorkloadConfig{
		Size: 200, Mixed: true, PoolSize: 66,
		ZipfS: 1.2, ChainFrac: 0.5, ChainLen: 3, MinEdges: 3, MaxEdges: 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]core.Request, len(w.Queries))
	for i, q := range w.Queries {
		reqs[i] = core.Request{Graph: q.G, Type: q.Type}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := core.DefaultConfig()
		if serialized {
			cfg.Shards = 1
			cfg.Serialized = true
		}
		c, err := core.New(method, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j, o := range c.ExecuteAll(reqs, workers) {
			if o.Err != nil {
				b.Fatalf("query %d: %v", j, o.Err)
			}
		}
	}
	b.ReportMetric(float64(len(reqs)), "queries/op")
}

func BenchmarkSerializedBaseline8Workers(b *testing.B) { benchThroughput(b, true, 8) }
func BenchmarkSharded8Workers(b *testing.B)            { benchThroughput(b, false, 8) }
func BenchmarkSharded1Worker(b *testing.B)             { benchThroughput(b, false, 1) }
