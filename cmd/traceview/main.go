// Command traceview merges the flight-recorder dumps of one run (written
// by chaossoak or omegasim under -trace-dir) into one causally ordered
// timeline: request latency percentiles with a per-stage breakdown
// (queue / quorum / wire / apply), the reconstructed leader-election
// downtime intervals, the slowest request's span tree, and optionally
// the whole merge as Chrome trace_event JSON. Dumps of two runs are
// refused.
//
// Usage examples:
//
//	traceview /tmp/dumps                       # summary + slowest request
//	traceview -top 3 /tmp/dumps                # the three slowest requests
//	traceview -chrome out.json /tmp/dumps      # open in chrome://tracing
//	traceview -require-request -require-election /tmp/dumps   # CI gate
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/traceview"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("traceview", flag.ContinueOnError)
	var (
		top        = fs.Int("top", 1, "print the span trees of the N slowest complete requests")
		chrome     = fs.String("chrome", "", "also write the merged timeline as Chrome trace_event JSON to this file")
		reqRequest = fs.Bool("require-request", false, "exit nonzero unless at least one complete request chain (request→queue→quorum→apply) was reconstructed")
		reqElect   = fs.Bool("require-election", false, "exit nonzero unless at least one leader-election transition was captured")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: traceview [flags] <dump-dir-or-file>...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("traceview: no dump directories given")
	}

	m, err := traceview.Load(fs.Args()...)
	if err != nil {
		return err
	}
	traces := traceview.BuildTraces(m)
	reqs := traceview.Requests(traces)
	el := traceview.Elections(m)
	traceview.WriteSummary(os.Stdout, m, traces, reqs, el)

	// Slowest complete requests, whole-chain trees.
	complete := make([]traceview.Request, 0, len(reqs))
	for _, r := range reqs {
		if r.Complete {
			complete = append(complete, r)
		}
	}
	sort.Slice(complete, func(i, j int) bool { return complete[i].Stages.Total > complete[j].Stages.Total })
	byID := make(map[uint64]traceview.Trace, len(traces))
	for _, tr := range traces {
		byID[tr.ID] = tr
	}
	for i := 0; i < *top && i < len(complete); i++ {
		r := complete[i]
		fmt.Printf("\nslowest #%d: total %v (queue %v quorum %v wire %v apply %v)\n",
			i+1, r.Stages.Total, r.Stages.Queue, r.Stages.Quorum, r.Stages.Wire, r.Stages.Apply)
		traceview.WriteTraceTree(os.Stdout, byID[r.Trace])
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			return fmt.Errorf("traceview: -chrome: %w", err)
		}
		werr := traceview.WriteChrome(f, m)
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return cerr
		}
		fmt.Printf("chrome:    wrote %s (%d spans)\n", *chrome, len(m.Spans))
	}

	if *reqRequest && len(complete) == 0 {
		return fmt.Errorf("traceview: -require-request: no complete request chain in %d dumps (%d traced requests)", len(m.Files), len(reqs))
	}
	if *reqElect && el.Changes == 0 {
		return fmt.Errorf("traceview: -require-election: no leader-change marks in %d dumps", len(m.Files))
	}
	return nil
}
