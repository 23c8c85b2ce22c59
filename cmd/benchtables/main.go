// Command benchtables regenerates every experiment table and figure
// (E1–E14) of the reproduction. The output is the source of the numbers
// recorded in EXPERIMENTS.md.
//
// Usage:
//
//	benchtables             # run the full suite
//	benchtables -quick      # scaled-down sweeps (CI-sized)
//	benchtables -only E3    # a single experiment
//	benchtables -seeds 10   # more seeds per cell
//	benchtables -j 4        # four sweep workers
//	benchtables -j 1        # the sequential path
//
// Independent (cell, seed) runs are fanned across CPU cores; results are
// merged deterministically, so the output is byte-identical for any -j.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	quick := flag.Bool("quick", false, "run scaled-down sweeps")
	only := flag.String("only", "", "run a single experiment by id (e.g. E3)")
	seeds := flag.Int("seeds", 0, "seeds per cell (default 5, quick 2)")
	md := flag.Bool("md", false, "emit markdown sections (the EXPERIMENTS.md format)")
	jobs := flag.Int("j", 0, "sweep workers (0 = one per core, 1 = sequential)")
	flag.Parse()

	opts := experiments.Opts{Quick: *quick, Seeds: *seeds, Workers: *jobs}
	if *only != "" {
		return experiments.RunOne(os.Stdout, *only, opts)
	}
	if *md {
		return experiments.RunAllMarkdown(os.Stdout, opts)
	}
	return experiments.RunAll(os.Stdout, opts)
}
