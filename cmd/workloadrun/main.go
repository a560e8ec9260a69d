// Command workloadrun is the CLI rendition of the demo's Scenario II —
// The Workload Run (Figure 2(b) and 2(c)): it processes a workload through
// GraphCache, reporting per-query sub/super/exact hits and hit percentage,
// then compares which cached graphs each replacement policy evicts.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

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
		seed     = fs.Int64("seed", 2018, "random seed")
		size     = fs.Int("size", 10, "workload size (demo: 10)")
		policy   = fs.String("policy", "hd", "replacement policy for the run")
		policies = fs.String("policies", "lru,pop,pin,pinc,hd", "policies for the replacement comparison; 'none' to skip")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	steps, c, err := RunWorkload(*seed, *size, *policy)
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

	if *policies == "none" {
		return nil
	}
	names := strings.Split(*policies, ",")
	rs, err := RunReplacement(*seed, names)
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
