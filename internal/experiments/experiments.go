// Package experiments regenerates the reproduction's tables and figures
// (E1–E14, indexed in DESIGN.md §4 and reported in EXPERIMENTS.md). PODC
// 2004 is a theory paper, so each experiment validates one theorem-shaped
// claim empirically: steady-state message counts, links used forever,
// stabilization times, consensus costs, assumption boundaries, and
// ablations of the core algorithm's design choices.
//
// Every experiment is deterministic given its seeds and runs on the
// discrete-event simulator, so the tables in EXPERIMENTS.md can be
// regenerated bit-for-bit with cmd/benchtables or `go test -bench`.
package experiments

import (
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Eta is the heartbeat period every experiment uses.
const Eta = 10 * time.Millisecond

// Opts scales experiments.
type Opts struct {
	// Quick shrinks sweeps and horizons for use in unit tests.
	Quick bool
	// Seeds is the number of seeds per cell (default 5, quick 2).
	Seeds int
	// Workers is the parallel sweep width: independent (cell, seed) runs
	// are fanned across this many workers. <= 0 means one per schedulable
	// core; 1 runs everything inline. Results are merged in (cell, seed)
	// order, so output is byte-identical for every worker count.
	Workers int
}

func (o *Opts) fill() {
	if o.Seeds <= 0 {
		if o.Quick {
			o.Seeds = 2
		} else {
			o.Seeds = 5
		}
	}
}

// pool returns the sweep pool experiments fan their independent runs on.
func (o Opts) pool() *sweep.Pool { return sweep.New(o.Workers) }

// sweepCells runs fn(cell, seed) for every cell × seed pair on o's pool and
// returns the results indexed [cell][seed]. fn must be self-contained: each
// call builds its own System/World on its own kernel, so runs can execute
// on any worker in any order. The merge is in (cell, seed) order, which
// keeps tables byte-identical to the sequential double loop they replace.
func sweepCells[C, T any](o Opts, cells []C, fn func(cell C, seed int) T) [][]T {
	flat := sweep.Map(o.pool(), len(cells)*o.Seeds, func(i int) T {
		return fn(cells[i/o.Seeds], i%o.Seeds)
	})
	out := make([][]T, len(cells))
	for ci := range cells {
		out[ci] = flat[ci*o.Seeds : (ci+1)*o.Seeds]
	}
	return out
}

// sweepEach is sweepCells for experiments without a seed dimension: one
// independent run per cell, merged in cell order.
func sweepEach[C, T any](o Opts, cells []C, fn func(cell C) T) []T {
	return sweep.Map(o.pool(), len(cells), func(i int) T { return fn(cells[i]) })
}

// build is scenario.Build for a configuration an experiment wrote itself:
// an error there is a bug in the experiment, so it panics.
func build(cfg scenario.Config) *scenario.System {
	s, err := scenario.Build(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Table is an experiment result (Markdown renders it).
type Table struct {
	ID      string
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
}

// Series is a figure: one or more named curves over a shared x axis.
type Series struct {
	ID     string
	Title  string
	Note   string
	XLabel string
	YLabel string
	Names  []string
	X      []float64
	Y      [][]float64 // indexed [name][x]
}

// etaT converts a count of η periods into a sim.Time instant.
func etaT(periods int) sim.Time { return sim.At(time.Duration(periods) * Eta) }

// mean averages a slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// maxOf returns the maximum of a slice.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
