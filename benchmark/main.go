// Command benchmark is the closed-loop measurement harness of this
// repository: four workloads, the end-to-end metrics a user of the cache
// feels, and under them a per-layer table that says which layer moved them.
// README.md explains the workloads, the metrics and how to read a result;
// BENCHMARK.json at the repository root is the contract it is run by.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// result is what one run prints: a stamp line, then, last, the line the
// contract in BENCHMARK.json asks for.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if raceEnabled {
		fmt.Fprintln(os.Stderr, "benchmark: refusing to measure under the race detector")
		os.Exit(2)
	}
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "one of hot-exact, containment-mix, cold-unique, daemon-churn")
	seed := fs.Int64("seed", 1, "seed of the op order, the mutation graphs and the oracle sample")
	seconds := fs.Float64("seconds", 15, "sizes the op counts: the timed phases take about this long on the sandbox the rates were fixed on")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans to this file as JSON lines")
	scale := fs.Float64("scale", 1, "shrink every size by this factor (the smoke test runs at 1/20)")
	repeat := fs.Int("repeat", 0, "run this many fresh processes per workload, run i with seed+i, and print the spread of each end-to-end metric")
	out := fs.String("out", "", "with -repeat, also write the result set to this file")
	check := fs.Bool("check", false, "compare two result sets written by -repeat against the bounds in ./BENCHMARK.json: -check A.json B.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *check:
		if fs.NArg() != 2 {
			return errors.New("-check wants two result sets: -check A.json B.json")
		}
		return checkSets(fs.Arg(0), fs.Arg(1), stdout)
	case *repeat > 0:
		names := workloadNames
		if *workload != "" {
			names = []string{*workload}
		}
		return repeatRuns(names, *repeat, *seed, *seconds, *scale, *out, stdout, stderr)
	}
	if *seconds <= 0 || *scale <= 0 {
		return errors.New("-seconds and -scale must be positive")
	}
	// One client per CPU, and as many Ps: the closed loop's client count is
	// part of the load model, so it is fixed here and stamped on the result.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	rc := runConfig{workload: *workload, seed: *seed, seconds: *seconds, nproc: nproc, sz: sizesFor(*scale)}

	var rep *report
	var err error
	defs := endToEnd
	t0 := time.Now()
	if *trace != 0 {
		defs = perLayer
		rep, err = measureLayers(rc, *traceOut)
	} else {
		rep, err = measureEndToEnd(rc)
	}
	if err != nil {
		return err
	}
	rep.environment(rc, *scale, *trace != 0)
	fmt.Fprintf(stderr, "%s seed %d: %d ops, %d failed, %.1f s in all\n",
		rc.workload, rc.seed, rep.tally.attempted, rep.tally.failed, time.Since(t0).Seconds())
	for _, w := range rep.stamp.Warnings {
		fmt.Fprintln(stderr, "warning:", w)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rep.stamp); err != nil {
		return err
	}
	res := result{
		Correct:   rep.tally.failed == 0,
		Attempted: rep.tally.attempted,
		Failed:    rep.tally.failed,
		Metrics:   withUnits(defs, rep.vals),
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("ops failed or answers differ from Method.Run: %v", rep.tally.firstErr)
	}
	return nil
}

// commit names the code that was measured: the revision the toolchain
// stamped into the binary, "unknown" when it was not built in a repository.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown"
}
