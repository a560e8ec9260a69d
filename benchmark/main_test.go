package main

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"

	"graphcache/internal/gen"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct {
	Name, Unit, Better string
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesTables: BENCHMARK.json and the tables in metrics.go name
// the same workloads and metrics, with the same units and directions.
func TestSpecMatchesTables(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	for _, pair := range []struct {
		what string
		spec []specMetric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(pair.spec) != len(pair.defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", pair.what, len(pair.spec), len(pair.defs))
		}
		for i, m := range pair.spec {
			d := pair.defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %v, benchmark {%s %s %s}", pair.what, i, m, d.name, d.unit, d.better)
			}
		}
	}
}

// TestSmoke runs every workload untraced and traced at 1/20 of the sizes
// for a fraction of a second: the result line carries exactly the metrics
// of BENCHMARK.json, no op fails (so the oracle agrees with Method.Run),
// and the workloads are what they claim to be.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var out bytes.Buffer
			err := run([]string{"-workload", name, "-seed", "3", "-seconds", "0.4", "-scale", "0.05", "-trace", strconv.Itoa(trace)}, &out, io.Discard)
			if err != nil {
				t.Fatalf("%s trace %d: %v", name, trace, err)
			}
			rec, err := parseRun(out.Bytes())
			if err != nil {
				t.Fatalf("%s trace %d: %v", name, trace, err)
			}
			if rec.Stamp.OpsFailed != 0 || rec.Stamp.OpsAttempted == 0 {
				t.Errorf("%s trace %d: %d of %d ops failed", name, trace, rec.Stamp.OpsFailed, rec.Stamp.OpsAttempted)
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", name, trace, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := rec.Metrics[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace %d: metric %s = %v (present: %v)", name, trace, d.name, v, ok)
				}
				if trace == 0 && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, v)
				}
			}
			if trace == 0 {
				continue
			}
			exact := rec.Metrics["core.exact_frac"]
			switch name {
			case coldUnique:
				if exact != 0 {
					t.Errorf("cold-unique: core.exact_frac = %v, want 0", exact)
				}
			case hotExact:
				if exact < 0.99 {
					t.Errorf("hot-exact: core.exact_frac = %v, want ≥ 0.99", exact)
				}
			case daemonChurn:
				if rec.Metrics["server.handler_us"] <= 0 || rec.Metrics["core.alt_lazy_reconcile_qps"] <= 0 {
					t.Errorf("daemon-churn: server spans or the reconcile sweep are missing: %v", rec.Metrics)
				}
				if exact <= 0 {
					t.Errorf("daemon-churn: no reply was classified as an exact hit; has the server's JSON changed?")
				}
			case containmentMix:
				if rec.Metrics["core.detect_us_cap10000"] <= 0 || rec.Metrics["core.alt_serialized_qps"] <= 0 {
					t.Errorf("containment-mix: the sweeps are missing: %v", rec.Metrics)
				}
			}
		}
	}
}

// TestSeedsDoTheSameWork: the seed orders the ops and never chooses them, so
// two seeds issue every pattern equally often, with zipf's shares.
func TestSeedsDoTheSameWork(t *testing.T) {
	sz := sizesFor(0.05)
	dataset := gen.Molecules(rand.New(rand.NewSource(dataSeed)), sz.dataset, gen.DefaultMoleculeConfig())
	for _, name := range workloadNames {
		var counts [2]map[uint32]int
		var differ bool
		var first []uint32
		for i, seed := range []int64{3, 4} {
			w, err := newWorkload(name, dataset, seed, sz, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			counts[i] = map[uint32]int{}
			for _, op := range w.ops {
				counts[i][op]++
			}
			if i == 0 {
				first = w.ops
			} else {
				differ = !slices.Equal(first, w.ops)
			}
		}
		if !maps.Equal(counts[0], counts[1]) {
			t.Errorf("%s: seeds 3 and 4 issue different queries", name)
		}
		if !differ {
			t.Errorf("%s: seeds 3 and 4 issue the queries in the same order", name)
		}
	}
	shares := zipfShares([]int{2, 0, 1}, 1, 11) // weights 1, 1/2, 1/3: 6, 3 and 2 of 11
	if want := []uint32{2, 2, 2, 2, 2, 2, 0, 0, 0, 1, 1}; !slices.Equal(shares, want) {
		t.Errorf("zipfShares = %v, want %v", shares, want)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.record(v * 10)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 1e6
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", q, got, want)
		}
	}
	for _, v := range []int64{0, 1, 127, 128, 129, 1 << 20, 1<<40 + 12345} {
		lo, width := histBounds(histIndex(v))
		if float64(v) < lo || float64(v) >= lo+width || width > math.Max(1, 0.008*lo) {
			t.Errorf("value %d lands in bucket [%v, %v)", v, lo, lo+width)
		}
	}
}

// TestSpreadOf pins the quartile rule to Python's statistics.quantiles.
func TestSpreadOf(t *testing.T) {
	var runs []runRecord
	for v := 1; v <= 10; v++ {
		runs = append(runs, runRecord{Metrics: map[string]float64{"m": float64(v)}})
	}
	q := spreadOf(runs, "m")
	if q.q1 != 2.75 || q.median != 5.5 || q.q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q.q1, q.median, q.q3)
	}
}
