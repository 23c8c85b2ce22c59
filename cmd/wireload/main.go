// Command wireload is a throughput harness for the live transport: it
// drives an all-to-all heartbeat load — the paper's steady-state traffic
// shape — through a TCP cluster at a configurable per-link rate and
// reports what the wire actually cost: messages per second,
// bytes per message, allocations per message, and drops. Every number
// comes out of the same obs/metrics pipeline the protocols are
// instrumented with, so the harness measures the path production code
// runs, not a synthetic copy of it.
//
// Usage examples:
//
//	wireload -n 5 -rate 2000 -dur 5s
//	wireload -n 3 -msg vector
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/detector/source"
	"repro/internal/node"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// nop is a silent automaton: wireload's traffic is injected from the
// pacing goroutines, so the stations only receive.
type nop struct{}

func (nop) Start(node.Env)                {}
func (nop) Tick(string)                   {}
func (nop) Deliver(node.ID, node.Message) {}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("wireload", flag.ContinueOnError)
	var (
		n            = fs.Int("n", 3, "number of processes")
		rate         = fs.Int("rate", 1000, "messages per second per directed link")
		dur          = fs.Duration("dur", 3*time.Second, "how long to drive the load")
		seed         = fs.Int64("seed", 1, "re-dial jitter seed")
		msgName      = fs.String("msg", "hb", "payload: hb (leader heartbeat), vector (SOURCE counter vector)")
		sendQueue    = fs.Int("sendqueue", 0, "TCP per-link queue bound (0 = default)")
		metricsAddr  = fs.String("metrics-addr", "", "serve /metrics, /healthz and pprof on this address (e.g. :8080)")
		snapshotJSON = fs.String("snapshot-json", "", "write the final merged metrics+histogram snapshot to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 2 {
		return fmt.Errorf("wireload: n = %d, need at least 2", *n)
	}
	if *rate <= 0 || *dur <= 0 {
		return fmt.Errorf("wireload: rate and dur must be positive")
	}

	var msg node.Message
	switch *msgName {
	case "hb":
		msg = core.LeaderMsg{Epoch: 7}
	case "vector":
		counters := make([]uint64, *n)
		for i := range counters {
			counters[i] = uint64(3 * i)
		}
		msg = source.AliveMsg{Counters: counters}
	default:
		return fmt.Errorf("wireload: unknown msg %q (want hb, vector)", *msgName)
	}

	autos := make([]node.Automaton, *n)
	for i := range autos {
		autos[i] = nop{}
	}
	tel := telemetry.New(*n)
	cfg := transport.Config{
		N: *n, Seed: *seed, Quiet: true,
		SendQueue: *sendQueue,
		Observer:  tel,
	}
	c, err := transport.NewTCPCluster(cfg, autos)
	if err != nil {
		return err
	}
	tel.AttachStats(c.Stats())
	if *metricsAddr != "" {
		srv, err := telemetry.Serve(*metricsAddr, tel)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "telemetry: serving /metrics, /healthz, /debug/pprof on http://%s\n", srv.Addr())
	}
	c.Start()

	// One pacing goroutine per sender: every tick it injects the messages
	// the elapsed time owes on each of its n-1 out-links, round-robin, so
	// the load is all-to-all at -rate per directed link. Bursts within a
	// tick are exactly what coalescing should absorb.
	var memBefore runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&memBefore)
	begin := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(*n)
	for i := 0; i < *n; i++ {
		go func(from int) {
			defer wg.Done()
			const tick = 2 * time.Millisecond
			t := time.NewTicker(tick)
			defer t.Stop()
			sent := 0
			for {
				select {
				case <-stop:
					return
				case <-t.C:
				}
				owed := int(float64(*rate)*time.Since(begin).Seconds()) - sent
				for k := 0; k < owed; k++ {
					for to := 0; to < *n; to++ {
						if to == from {
							continue
						}
						c.Inject(node.ID(from), node.ID(to), msg)
					}
					sent++
				}
			}
		}(i)
	}
	time.Sleep(*dur)
	close(stop)
	wg.Wait()
	elapsed := time.Since(begin)
	c.Stop()
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)

	s := c.Stats()
	sent, delivered, dropped := s.TotalSent(), s.Delivered(), s.Dropped()
	wireBytes := s.WireBytes()
	report := func(f string, args ...any) { fmt.Fprintf(out, f+"\n", args...) }
	report("wireload: n=%d rate=%d/link dur=%v msg=%s",
		*n, *rate, elapsed.Round(time.Millisecond), *msgName)
	report("  sent      %10d  (%.0f msgs/sec offered)", sent, float64(sent)/elapsed.Seconds())
	report("  delivered %10d  (%.0f msgs/sec)", delivered, float64(delivered)/elapsed.Seconds())
	report("  dropped   %10d", dropped)
	if sent > 0 {
		report("  wire      %10d B  (%.1f B/msg)", wireBytes, float64(wireBytes)/float64(sent))
		allocs := memAfter.Mallocs - memBefore.Mallocs
		report("  allocs    %10d  (%.2f allocs/msg end to end)", allocs, float64(allocs)/float64(sent))
	}
	if hb := tel.Hist(telemetry.HeartbeatInterarrival); hb.Count > 0 {
		report("  hb-gap    p50=%v p99=%v max=%v (per-link inter-arrival)",
			hb.Quantile(0.5), hb.Quantile(0.99), hb.Max)
	}
	if *snapshotJSON != "" {
		if err := tel.WriteJSON(*snapshotJSON); err != nil {
			return err
		}
		report("  snapshot  wrote %s", *snapshotJSON)
	}
	if delivered == 0 {
		return fmt.Errorf("wireload: nothing delivered — transport broken")
	}
	return nil
}
