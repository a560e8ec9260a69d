package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"text/tabwriter"
)

// runRecord is one process's result inside a result set.
type runRecord struct {
	Stamp   stamp              `json:"stamp"`
	Metrics map[string]float64 `json:"metrics"`
}

// resultSet is what -repeat writes and -check reads: every run, by workload.
type resultSet struct {
	Runs map[string][]runRecord `json:"runs"`
}

// repeatRuns runs n fresh processes of this binary per workload, untraced,
// round i with seed+i as the contract's driver does, reversing the workload
// order on every other round so that no workload always runs on a machine
// the previous one warmed, and prints the spread of every end-to-end metric.
func repeatRuns(names []string, n int, seed int64, seconds, scale float64, outPath string, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Runs: map[string][]runRecord{}}
	for i := 0; i < n; i++ {
		order := slices.Clone(names)
		if i%2 == 1 {
			slices.Reverse(order)
		}
		for _, name := range order {
			cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-scale", strconv.FormatFloat(scale, 'g', -1, 64))
			cmd.Stderr = stderr
			raw, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("run %d of %s: %w", i, name, err)
			}
			rec, err := parseRun(raw)
			if err != nil {
				return fmt.Errorf("run %d of %s: %w", i, name, err)
			}
			set.Runs[name] = append(set.Runs[name], rec)
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tmin\tq1\tmedian\tq3\tmax\tiqr/median\t")
	for _, name := range names {
		for _, d := range endToEnd {
			q := spreadOf(set.Runs[name], d.name)
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%.5g\t%.5g\t%.5g\t%.4f\t\n", name, d.name, q.min, q.q1, q.median, q.q3, q.max, q.spread())
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(data, '\n'), 0o644)
}

// parseRun reads a run's two output lines: the stamp, then the result.
func parseRun(raw []byte) (runRecord, error) {
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) < 2 {
		return runRecord{}, errors.New("want a stamp line and a result line")
	}
	var rec runRecord
	var res result
	if err := json.Unmarshal(lines[len(lines)-2], &rec.Stamp); err != nil {
		return rec, fmt.Errorf("stamp line: %w", err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return rec, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return rec, errors.New("the run reports incorrect results")
	}
	rec.Metrics = make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		rec.Metrics[name] = m.Value
	}
	return rec, nil
}

// quartiles summarises one metric over the runs of one workload.
type quartiles struct{ min, q1, median, q3, max float64 }

// spread is the distance between the quartiles as a share of the median,
// the figure the bounds in BENCHMARK.json are set against.
func (q quartiles) spread() float64 { return ratio(q.q3-q.q1, q.median) }

// spreadOf computes the quartiles the way Python's statistics.quantiles(n=4)
// does, which is how the driver of BENCHMARK.json computes them.
func spreadOf(runs []runRecord, metric string) quartiles {
	vals := make([]float64, 0, len(runs))
	for _, r := range runs {
		vals = append(vals, r.Metrics[metric])
	}
	if len(vals) == 0 {
		return quartiles{}
	}
	slices.Sort(vals)
	n := len(vals)
	cut := func(i int) float64 {
		if n == 1 {
			return vals[0]
		}
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (vals[j-1]*(4-delta) + vals[j]*delta) / 4
	}
	return quartiles{min: vals[0], q1: cut(1), median: cut(2), q3: cut(3), max: vals[n-1]}
}

// checkSets compares result set b against a by the bounds BENCHMARK.json in
// the working directory fixes. A pair whose own spread is wider than its
// bound cannot show a regression of that size and is reported as
// unresolved, not as unchanged.
func checkSets(aPath, bPath string, stdout io.Writer) error {
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	var a, b resultSet
	for path, into := range map[string]any{"BENCHMARK.json": &spec, aPath: &a, bPath: &b} {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, into); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tmedian B\tworse by\tspread\tbound\tverdict\t")
	bad := 0
	for _, name := range workloadNames {
		if len(a.Runs[name]) == 0 || len(b.Runs[name]) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			qa, qb := spreadOf(a.Runs[name], m.Name), spreadOf(b.Runs[name], m.Name)
			worse := ratio(qb.median-qa.median, qa.median)
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max(qa.spread(), qb.spread())
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
				bad++
			case worse > m.Bound:
				verdict = "regressed"
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%+.4f\t%.4f\t%.2f\t%s\t\n", name, m.Name, qa.median, qb.median, worse, spread, m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d (metric, workload) pairs regressed or unresolved", bad)
	}
	return nil
}
