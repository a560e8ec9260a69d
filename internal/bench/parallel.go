package bench

import (
	"fmt"
	"runtime"
	"time"

	"graphcache/internal/core"
	"graphcache/internal/ftv"
	"graphcache/internal/gen"
)

// ThroughputPoint is one measured configuration of the parallel-throughput
// experiment: a worker count driving a cache engine, and the resulting
// queries/sec.
type ThroughputPoint struct {
	Workers int
	Queries int
	Elapsed time.Duration
	QPS     float64
}

// ThroughputComparison reports the two engines over the identical mixed
// workload at each worker count: the serialized single-lock baseline and
// the default lock-striped kernel.
type ThroughputComparison struct {
	// Tier names the workload tier that was run; DatasetSize and Queries
	// record its realized scale so the JSON artifact is self-describing.
	Tier         string
	DatasetSize  int
	Queries      int
	WorkerCounts []int
	// Serialized drives a Config{Shards: 1, Serialized: true} cache — the
	// pre-sharding engine that takes one global lock per query.
	Serialized []ThroughputPoint
	// Sharded drives the default engine.
	Sharded []ThroughputPoint
}

// SpeedupAt returns default-engine QPS over serialized QPS at the given
// worker count (>1 means the sharded engine wins); 0 if the count was not
// run.
func (t *ThroughputComparison) SpeedupAt(workers int) float64 {
	for i, w := range t.WorkerCounts {
		if w == workers && t.Serialized[i].QPS > 0 {
			return t.Sharded[i].QPS / t.Serialized[i].QPS
		}
	}
	return 0
}

// Environment records the runtime context a benchmark ran under, so a
// committed BENCH artifact states how much hardware parallelism its
// scaling numbers could possibly show (a 1-CPU container can only ever
// report a flat sweep).
type Environment struct {
	GOMAXPROCS int
	NumCPU     int
	GoVersion  string
	Race       bool
}

// CaptureEnvironment snapshots the current runtime environment.
func CaptureEnvironment() Environment {
	return Environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Race:       raceEnabled,
	}
}

// DefaultThroughputWorkers are the worker counts the throughput
// experiment sweeps: the sequential floor, then powers of two up to and
// including GOMAXPROCS — the scale the hardware can actually run.
// Hard-coding counts past GOMAXPROCS only measures scheduler thrash, and
// stopping short of it hides the top of the scaling curve; deriving the
// sweep keeps the committed BENCH artifacts honest about the machine
// they ran on (the environment block records GOMAXPROCS alongside).
func DefaultThroughputWorkers() []int {
	maxW := runtime.GOMAXPROCS(0)
	ws := []int{1}
	for w := 2; w < maxW; w *= 2 {
		ws = append(ws, w)
	}
	if maxW > 1 {
		ws = append(ws, maxW)
	}
	return ws
}

// ThroughputTier is one named workload scale for the parallel-throughput
// experiment. The default tier is the historical bench-smoke scale; the
// large tier exists because small workloads hide parallel wins — with a
// few hundred queries, cache construction and fixed costs dominate and
// every engine measures the same (ROADMAP open item 1).
type ThroughputTier struct {
	// Name tags the tier in reports and JSON artifacts.
	Name string
	// DatasetSize and Queries set the workload scale.
	DatasetSize int
	Queries     int
	// PoolSize is the number of distinct queries; the workload draws
	// Queries zipf-skewed repeats from this pool, so Queries-PoolSize
	// executions exercise the hit paths.
	PoolSize int
	// ZipfS is the skew of the repeat distribution (>1; higher = more
	// head-heavy).
	ZipfS float64
	// Rounds is how many measured rounds each (engine, workers) cell
	// gets (best-of, after one unmeasured warmup).
	Rounds int
}

// DefaultTier is the historical throughput workload: small enough for
// the CI smoke gates, interleaved best-of-5 rounds.
func DefaultTier() ThroughputTier {
	return ThroughputTier{Name: "default", DatasetSize: 200, Queries: 1000, PoolSize: 333, ZipfS: 1.2, Rounds: 5}
}

// LargeTier is the scaling workload: 10k dataset graphs and 10k
// zipf-skewed mixed queries from a 1k-query pool, so the run spends its
// time in the concurrent query paths (hit detection, verification,
// admission) rather than in fixed setup. Rounds drop to best-of-2 —
// each round is long enough to average out scheduling jitter on its
// own.
func LargeTier() ThroughputTier {
	return ThroughputTier{Name: "large", DatasetSize: 10000, Queries: 10000, PoolSize: 1000, ZipfS: 1.1, Rounds: 2}
}

// TierByName resolves a -scale flag value.
func TierByName(name string) (ThroughputTier, error) {
	switch name {
	case "", "default":
		return DefaultTier(), nil
	case "large":
		return LargeTier(), nil
	}
	return ThroughputTier{}, fmt.Errorf("unknown workload tier %q (want default or large)", name)
}

// ParallelThroughput measures the default tier at the given scale — the
// historical entry point; see ParallelThroughputTier.
func ParallelThroughput(seed int64, datasetSize, queries int, workerCounts []int) (*ThroughputComparison, error) {
	tier := DefaultTier()
	tier.DatasetSize = datasetSize
	tier.Queries = queries
	tier.PoolSize = max(queries/3, 8)
	return ParallelThroughputTier(seed, tier, workerCounts)
}

// ParallelThroughputTier measures end-to-end queries/sec of the default
// engine against the serialized baseline on one workload tier. One dataset, one GGSX index and one
// mixed subgraph/supergraph workload are generated up front and shared
// by every run (the filter index is immutable and concurrency-safe);
// each (engine, workers) cell gets a fresh cache so no run warms
// another. The workload is submitted through Cache.ExecuteAll with the
// cell's worker count.
func ParallelThroughputTier(seed int64, tier ThroughputTier, workerCounts []int) (*ThroughputComparison, error) {
	if len(workerCounts) == 0 {
		workerCounts = DefaultThroughputWorkers()
	}
	if tier.Rounds < 1 {
		tier.Rounds = 1
	}
	dataset := MoleculeDataset(seed, tier.DatasetSize)
	method := ftv.NewGGSXMethod(dataset, 3)
	w, err := gen.NewWorkload(newRand(seed+7), dataset, gen.WorkloadConfig{
		Size: tier.Queries, Mixed: true, PoolSize: max(tier.PoolSize, 8),
		ZipfS: tier.ZipfS, ChainFrac: 0.5, ChainLen: 3, MinEdges: 3, MaxEdges: 12,
	})
	if err != nil {
		return nil, err
	}
	reqs := make([]core.Request, len(w.Queries))
	for i, q := range w.Queries {
		reqs[i] = core.Request{Graph: q.G, Type: q.Type}
	}

	cmp := &ThroughputComparison{
		Tier:         tier.Name,
		DatasetSize:  tier.DatasetSize,
		Queries:      tier.Queries,
		WorkerCounts: workerCounts,
	}
	runOnce := func(cfg core.Config, workers int) (ThroughputPoint, error) {
		c, err := core.New(method, cfg)
		if err != nil {
			return ThroughputPoint{}, err
		}
		t0 := time.Now()
		outs := c.ExecuteAll(reqs, workers)
		elapsed := time.Since(t0)
		for i, o := range outs {
			if o.Err != nil {
				return ThroughputPoint{}, fmt.Errorf("query %d: %w", i, o.Err)
			}
		}
		return ThroughputPoint{
			Workers: workers,
			Queries: len(reqs),
			Elapsed: elapsed,
			QPS:     float64(len(reqs)) / elapsed.Seconds(),
		}, nil
	}

	serialCfg := core.DefaultConfig()
	serialCfg.Shards = 1
	serialCfg.Serialized = true
	shardedCfg := core.DefaultConfig()

	for _, workers := range workerCounts {
		// The two engines are measured in interleaved, rotating rounds
		// — a fresh cache per run so no run warms another — and each cell
		// reports its best round, after one unmeasured warmup pass per
		// engine. Background load drifts on timescales longer than one
		// round and the first pass pays one-time costs (page faults, heap
		// growth), so rotation plus warmup exposes every engine to the
		// same conditions instead of letting the measurement order decide
		// comparisons that are within a few percent.
		var serial, sharded ThroughputPoint
		cells := []struct {
			cfg  core.Config
			best *ThroughputPoint
		}{{serialCfg, &serial}, {shardedCfg, &sharded}}
		for r := -1; r < tier.Rounds; r++ {
			for i := range cells {
				cell := cells[(i+r+len(cells))%len(cells)]
				p, err := runOnce(cell.cfg, workers)
				if err != nil {
					return nil, err
				}
				if r >= 0 && p.QPS > cell.best.QPS {
					*cell.best = p
				}
			}
		}
		cmp.Serialized = append(cmp.Serialized, serial)
		cmp.Sharded = append(cmp.Sharded, sharded)
	}
	return cmp, nil
}
