// Command queryjourney is the CLI rendition of the demo's Scenario I —
// The Query Journey (Figure 3): it executes one query over a warmed
// GraphCache and walks through every computation panel, visualizing the
// dataset-wide sets H, C_M, S, S', C, R and A as proportional strips.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"graphcache/internal/viz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h printed usage; that is a clean exit
		}
		fmt.Fprintf(os.Stderr, "queryjourney: %v\n", err)
		os.Exit(1)
	}
}

// run renders the journey for args to stdout. It is main minus the
// process plumbing, so tests can drive it directly.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("queryjourney", flag.ContinueOnError)
	seed := fs.Int64("seed", 2018, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	res, err := RunFig3(*seed)
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, "The Query Journey — how GraphCache accelerates one query")
	fmt.Fprintln(stdout, strings.Repeat("=", 64))
	fmt.Fprintf(stdout, "cache: %d previously executed queries (demo: 50)\n\n", res.CachedQueries)

	const width = 60
	fmt.Fprintf(stdout, "(a,e) cache hits: %d sub-case (query ⊑ cached) and %d super-case (cached ⊑ query)\n",
		res.SubHits, res.SuperHits)
	fmt.Fprintf(stdout, "(b)   Method M filters the dataset to |C_M| = %d candidate graphs\n", res.CM)
	fmt.Fprintf(stdout, "      C_M %s\n", viz.Strip(res.CM, res.CM, width))
	fmt.Fprintf(stdout, "(c)   sub-case hits deliver S: %d graph(s) in the answer FOR SURE: %v\n", res.S, res.SureIDs)
	fmt.Fprintf(stdout, "(d)   super-case hits deliver S': %d graph(s) NOT in the answer for sure\n", res.SPrime)
	fmt.Fprintf(stdout, "      S'  %s\n", viz.Strip(res.SPrime, res.CM, width))
	fmt.Fprintf(stdout, "(f)   GC verifies only |C| = %d candidates (was %d)\n", res.C, res.CM)
	fmt.Fprintf(stdout, "      C   %s\n", viz.Strip(res.C, res.CM, width))
	fmt.Fprintf(stdout, "(g)   %d graphs survive sub-iso testing (R)\n", res.R)
	fmt.Fprintf(stdout, "(h)   answer set A = R ∪ S, |A| = %d: %v\n\n", res.A, res.AnswerIDs)

	fmt.Fprintf(stdout, "speedup in sub-iso test numbers: %d/%d = %.2f (paper example: 75/43 = 1.74)\n",
		res.CM, res.C, res.TestSpeedup)
	return nil
}
