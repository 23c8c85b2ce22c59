// Command omegasim runs one leader-election scenario on the deterministic
// simulator and reports what happened: final leaders, the Omega and
// communication-efficiency verdicts, message accounting, and (optionally)
// the full event trace.
//
// Usage examples:
//
//	omegasim -n 5 -algo core -regime all-et -gst 500ms -run 5s
//	omegasim -n 5 -algo alltoall -crash 0@300ms,1@600ms -run 3s
//	omegasim -n 4 -algo source -regime source-fairlossy -drop 0.4 -run 60s
//	omegasim -n 3 -algo core -run 1s -trace
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"repro/internal/faultline"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("omegasim", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 5, "number of processes")
		seed     = fs.Int64("seed", 1, "random seed")
		algo     = fs.String("algo", "core", "algorithm: core, core-nogrowth, core-noguard, core-noaccuse, alltoall, source")
		regime   = fs.String("regime", "all-timely", "link regime: all-timely, all-et, source-reliable, source-fairlossy, lossy")
		gst      = fs.Duration("gst", 0, "global stabilization time")
		eta      = fs.Duration("eta", 10*time.Millisecond, "heartbeat period η")
		drop     = fs.Float64("drop", 0.3, "drop probability for lossy regimes")
		source   = fs.Int("source", -1, "◊-source process id (-1: n-1)")
		runFor   = fs.Duration("run", 3*time.Second, "virtual time to simulate")
		crashes  = fs.String("crash", "", "crash plan, e.g. 0@300ms,2@1s")
		trace    = fs.Bool("trace", false, "print the full event trace")
		sweepN   = fs.Int("sweep", 0, "run this many seeds and report aggregate verdicts")
		jobs     = fs.Int("j", 0, "sweep workers (0 = one per core; output is identical for any value)")
		metrics  = fs.String("metrics-addr", "", "serve the run's telemetry (/metrics, /healthz, pprof) on this address and keep serving after the run until interrupted")
		traceDir = fs.String("trace-dir", "", "record leader-election spans and write a flight-recorder dump into this directory; feed it to traceview")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *source < 0 {
		*source = *n - 1
	}
	plan, err := parseCrashes(*crashes)
	if err != nil {
		return err
	}
	cfg := scenario.Config{
		N:         *n,
		Seed:      *seed,
		Algorithm: scenario.Algorithm(*algo),
		Regime:    scenario.Regime(*regime),
		Eta:       *eta,
		GST:       sim.At(*gst),
		DropProb:  *drop,
		Source:    node.ID(*source),
		Schedule:  plan,
	}
	if *sweepN > 0 {
		if *traceDir != "" {
			return fmt.Errorf("omegasim: -trace-dir records a single run; it cannot be combined with -sweep")
		}
		return runSweep(cfg, *sweepN, *jobs, *runFor)
	}
	cfg.EnableTrace = *trace
	var sys *scenario.System
	var tel *telemetry.Collector
	if *metrics != "" {
		tel = telemetry.New(*n)
	}
	var tset *tracing.Set
	if *traceDir != "" {
		// Leader changes and the plan's crashes become marks stamped with
		// virtual time, which is what traceview replays the elections from.
		tset = tracing.New(tracing.Config{Procs: *n, Dir: *traceDir})
	}
	if tel != nil {
		cfg.Observer = obs.Tee(tel, tset.Sink())
	} else {
		cfg.Observer = tset.Sink()
	}
	sys, err = scenario.Build(cfg)
	if err != nil {
		return err
	}
	if tel != nil {
		// The collector reads the simulator's virtual clock; after the
		// run it freezes at the horizon, so scraped gauges describe the
		// run's final instant.
		tel.AttachStats(sys.World.Stats, sys.World.Kernel.Now)
	}
	for i, om := range sys.Omegas {
		telemetry.Attach(cfg.Observer, tel, telemetry.Process{ID: node.ID(i), History: om.History()})
	}
	tail := sim.At(*runFor * 3 / 4)
	msgs := sys.RunWindow(tail, sim.At(*runFor))

	fmt.Printf("scenario: n=%d algo=%s regime=%s gst=%v seed=%d run=%v\n",
		*n, *algo, *regime, *gst, *seed, *runFor)
	fmt.Printf("leaders:  ")
	for i, l := range sys.Leaders() {
		alive := " "
		if !sys.World.Alive(node.ID(i)) {
			alive = "†"
		}
		fmt.Printf("p%d%s→p%v  ", i, alive, l)
	}
	fmt.Println()

	rep := sys.OmegaReport()
	if rep.Holds {
		fmt.Printf("omega:    HOLDS — leader p%v, stabilized at %v after %d changes\n",
			rep.Leader, rep.StabilizedAt, rep.Changes)
	} else {
		fmt.Printf("omega:    VIOLATED — %s\n", rep.Reason)
	}

	ce := sys.CommEffReport(tail, msgs)
	fmt.Printf("commeff:  efficient=%v quietSince=%v senders(tail)=%v links(tail)=%d msgs/η(tail)=%.1f\n",
		ce.Efficient, ce.QuietSince, ce.Senders, ce.LinksUsed, ce.MessagesPerPeriod)
	fmt.Printf("traffic:  %s\n", sys.World.Stats.Summary())
	for _, kind := range sys.World.Stats.Kinds() {
		fmt.Printf("          %-10s %d\n", kind, sys.World.Stats.KindCount(kind))
	}

	if *trace {
		fmt.Println("\ntrace:")
		if err := sys.Trace.WriteText(os.Stdout, 0, false); err != nil {
			return err
		}
	}
	if tset != nil {
		path, err := tset.Final()
		if err != nil {
			return err
		}
		fmt.Printf("tracing:  %d anomaly dumps; final dump %s\n", tset.Triggered(), path)
	}
	if tel != nil {
		var trace func(io.Writer) error
		if tset != nil {
			trace = tset.WriteJSON
		}
		srv, err := telemetry.Serve(*metrics, tel, trace)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("telemetry: serving the finished run on http://%s — Ctrl-C to exit\n", srv.Addr())
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		<-ctx.Done()
	}
	return nil
}

// runSweep executes the scenario cfg across seeds 0..seeds-1 — fanned
// across CPU cores, one isolated System per seed — and prints aggregate
// Omega / communication-efficiency verdicts: a quick boundary probe
// without the full experiment harness. Per-seed results are aggregated in
// seed order, so the output is identical for any worker count.
func runSweep(cfg scenario.Config, seeds, workers int, runFor time.Duration) error {
	type verdict struct {
		holds, efficient bool
		changes          int
		err              error
	}
	results := sweep.Map(sweep.New(workers), seeds, func(seed int) verdict {
		cfg := cfg
		cfg.Seed = int64(seed)
		sys, err := scenario.Build(cfg)
		if err != nil {
			return verdict{err: err}
		}
		tail := sim.At(runFor * 3 / 4)
		msgs := sys.RunWindow(tail, sim.At(runFor))
		rep := sys.OmegaReport()
		v := verdict{changes: rep.Changes}
		if rep.Holds && rep.StabilizedAt <= tail {
			v.holds = true
			v.efficient = sys.CommEffReport(tail, msgs).Efficient
		}
		return v
	})
	holds, efficient := 0, 0
	var worstChanges int
	for _, v := range results {
		if v.err != nil {
			return v.err
		}
		if v.holds {
			holds++
		}
		if v.efficient {
			efficient++
		}
		if v.changes > worstChanges {
			worstChanges = v.changes
		}
	}
	fmt.Printf("sweep:    %d seeds × %v, n=%d algo=%s regime=%s\n",
		seeds, runFor, cfg.N, cfg.Algorithm, cfg.Regime)
	fmt.Printf("omega:    holds (with margin) in %d/%d seeds\n", holds, seeds)
	fmt.Printf("commeff:  efficient in %d/%d seeds\n", efficient, seeds)
	fmt.Printf("churn:    worst-case leader changes %d\n", worstChanges)
	return nil
}

// parseCrashes parses "id@dur,id@dur" crash plans into a fault schedule,
// in time order.
func parseCrashes(s string) (faultline.Schedule, error) {
	if s == "" {
		return nil, nil
	}
	var out faultline.Schedule
	for _, part := range strings.Split(s, ",") {
		var id int
		at := ""
		if _, err := fmt.Sscanf(part, "%d@%s", &id, &at); err != nil {
			return nil, fmt.Errorf("bad crash spec %q (want id@duration): %w", part, err)
		}
		d, err := time.ParseDuration(at)
		if err != nil {
			return nil, fmt.Errorf("bad crash time in %q: %w", part, err)
		}
		out = append(out, faultline.Event{At: d, Op: faultline.OpCrash, From: node.ID(id)})
	}
	slices.SortStableFunc(out, func(a, b faultline.Event) int { return cmp.Compare(a.At, b.At) })
	return out, nil
}
