package main

import (
	"encoding/json"
	"time"

	"repro/internal/consensus/rsm"
	"repro/internal/core"
)

// This file is the benchmark's table of contents: the frozen settings,
// the six workloads and every metric name. BENCHMARK.json at the repo
// root is printed from it (`bench spec`), and a test keeps the two equal.
//
// What BENCHMARK.json gates is what this sandbox can hold still. Its host
// has periods, tens of seconds long, in which the same code costs a third
// more CPU time (README, "Steadiness"): every metric that is the host's
// speed — CPU per operation, wall-clock speed of the sims, capacity and
// latency of a saturated closed loop — moves with them by more than any
// bound the contract allows, whatever the run measures. Those are
// reported, as bench.* per-layer metrics and by the tcp_sat workload, and
// compared between interleaved sets by `bench compare`; the gated
// end-to-end metrics are the ones a host period moves by a tenth or less.

// Common settings. Later issues cite these; only a `benchmark` issue may
// change them.
const (
	liveN        = 3
	simN         = 5
	sendQueue    = 4096
	cmdBytes     = 64
	clientTO     = time.Second
	warmup       = 2 * time.Second
	runSeconds   = 10
	satInflight  = 256
	simLinkDelta = time.Millisecond
	eta          = 50 * time.Millisecond

	failoverSeeds   = 40
	failoverRate    = 2000
	failoverCrashAt = 2 * time.Second
	failoverEnd     = 6 * time.Second
	failoverRetry   = 100 * time.Millisecond
)

// op_tail_ms is the highest of p99, p95 and p90 that held its bound over
// ten repeats of one code. Simulated time repeats exactly, so the sims
// gate p99 — in sim_failover that is the requests that waited out the
// election. On the live workloads the whole-window p99 and, on tcp_write,
// p95 are inside the collector's mark phases (six of them in a window,
// 20-110 ms each, one of two cores) and moved by 18-125 % and 60 % of
// their median between repeats; p90 moved by at most 7 %. The whole-window
// p99 is reported as bench.op_p99_ms.
const (
	simTailQ  = 0.99
	liveTailQ = 0.90
)

func engineConfig() rsm.Config {
	return rsm.Config{BatchMax: 16, Window: 8, DriveInterval: 5 * time.Millisecond}
}

func newDetector() *core.Detector { return core.New(core.WithEta(eta), core.WithRebuff()) }

type workload struct {
	Name string
	Why  string
	// Rate is the fixed offered rate in ops/s (simulated seconds for the
	// sim workloads); 0 means closed loop.
	Rate     int
	ReadFrac float64       // share of operations that are reads
	Lease    time.Duration // rsm.Config.Lease
	WAL      bool          // one durable.WAL per replica, SyncGroup
	Sim      bool
	Failover bool
	// Manual workloads are run by `bench` and `bench compare` but are not
	// in BENCHMARK.json: every number they produce is the host's speed.
	Manual bool
}

var workloads = []workload{
	{Name: "tcp_write", Rate: 10000,
		Why: "open loop, 100% single-command writes at a fixed rate over loopback TCP: the client-visible write path (batcher, pipeline, codec, link, station)"},
	{Name: "tcp_sat", Rate: 0, Manual: true,
		Why: "closed loop, 256 outstanding writes with retry, in 2.5s segments on fresh clusters: sustained capacity, where shedding, stalls and re-elections show as lost goodput"},
	{Name: "tcp_mixed", Rate: 20000, ReadFrac: 0.9, Lease: 300 * time.Millisecond,
		Why: "open loop, 90% lease reads / 10% writes: reads bypass quorum, so per-message wire/link/transport cost dominates and phase 2 is a tenth"},
	{Name: "tcp_wal", Rate: 5000, WAL: true,
		Why: "tcp_write traffic with one SyncGroup WAL per replica: the only workload with internal/durable on the blocking path; WALs are reopened and checked"},
	{Name: "sim_steady", Rate: 20000, Sim: true,
		Why: "deterministic sim, n=5, 1ms timely links, open-loop writes in simulated time: protocol CPU cost with no sockets or codec, and counts that repeat exactly"},
	{Name: "sim_failover", Rate: failoverRate, Sim: true, Failover: true,
		Why: "deterministic sim, 40 seeds, leader crashed 2s in under an open-loop client: the only workload where internal/core election speed sets the result"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is reported by every workload with -trace 0. A metric that a
// workload cannot produce (read latency on a write-only run, failover
// downtime without a crash) is a per-layer metric instead: the driver
// gates every end-to-end metric on every workload, and none may read 0.
//
// A bound is about three times the widest spread (interquartile range
// over median, ten repeats of one code) the metric showed on any gated
// workload, so that noise alone does not fail a later change, and none
// but set-up time, which the driver's contract wants to have the largest,
// is past ISSUE 11's ceiling of 15 %.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.15},
	{"op_tail_ms", "ms", "lower", 0.15},
	{"allocs_per_op", "count", "lower", 0.10},
	{"rss_mb", "MB", "lower", 0.15},
	{"msgs_per_cmd", "count", "lower", 0.10},
}

// hostSpeed are the per-layer metrics that are the host's speed as much
// as the program's, with the bound `bench compare` holds them to between
// two sets of runs made alternately, so that both see the same host.
var hostSpeed = map[string]float64{
	"bench.cpu_us_per_op":     0.25,
	"bench.goodput_ops_per_s": 0.25,
}

// perLayer is reported by every workload with -trace 1; a layer that a
// workload does not run reads 0 there. The module name is the prefix.
var perLayer = []metricDef{
	{Name: "bench.gen_lag_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.gen_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.unattributed_pct", Unit: "%", Better: "lower"},
	{Name: "bench.goodput_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "bench.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "bench.traced_cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "bench.fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.write_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.op_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "bench.gen_us_per_cmd", Unit: "us", Better: "lower"},

	{Name: "transport.inject_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.send_us_per_cmd", Unit: "us", Better: "lower"},
	{Name: "transport.dropped_per_kcmd", Unit: "count", Better: "lower"},
	{Name: "transport.open_conns", Unit: "count", Better: "lower"},

	{Name: "link.frames_per_flush", Unit: "count", Better: "higher"},
	{Name: "link.bytes_per_flush", Unit: "B", Better: "higher"},
	{Name: "link.flushes_per_cmd", Unit: "count", Better: "lower"},
	{Name: "link.queue_drops", Unit: "count", Better: "lower"},

	{Name: "wire.encode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "wire.us_per_cmd", Unit: "us", Better: "lower"},
	{Name: "wire.bytes_per_cmd", Unit: "B", Better: "lower"},

	{Name: "rsm.busy_us_per_cmd", Unit: "us", Better: "lower"},
	{Name: "rsm.cmds_per_instance", Unit: "count", Better: "higher"},
	{Name: "rsm.queue_ms", Unit: "ms", Better: "lower"},
	{Name: "rsm.quorum_ms", Unit: "ms", Better: "lower"},
	{Name: "rsm.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "rsm.local_read_ratio", Unit: "ratio", Better: "higher"},
	{Name: "rsm.fallback_reads", Unit: "count", Better: "lower"},
	{Name: "rsm.retained_entries", Unit: "count", Better: "lower"},

	{Name: "core.busy_us_per_s", Unit: "us/s", Better: "lower"},
	{Name: "core.hb_msgs_per_s", Unit: "1/s", Better: "lower"},
	{Name: "core.omega_msgs_per_s", Unit: "1/s", Better: "lower"},
	{Name: "core.leader_changes", Unit: "count", Better: "lower"},
	{Name: "core.accusations", Unit: "count", Better: "lower"},
	{Name: "core.active_links", Unit: "count", Better: "lower"},
	{Name: "core.failover_downtime_ms", Unit: "ms", Better: "lower"},
	{Name: "core.failover_downtime_max_ms", Unit: "ms", Better: "lower"},

	{Name: "durable.append_us_p50", Unit: "us", Better: "lower"},
	{Name: "durable.append_us_p99", Unit: "us", Better: "lower"},
	{Name: "durable.calls_per_cmd", Unit: "count", Better: "lower"},
	{Name: "durable.us_per_cmd", Unit: "us", Better: "lower"},
	{Name: "durable.fsyncs_per_cmd", Unit: "count", Better: "lower"},
	{Name: "durable.fsync_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "durable.bytes_per_cmd", Unit: "B", Better: "lower"},
	{Name: "durable.recovery_ms", Unit: "ms", Better: "lower"},

	{Name: "sim.events_per_cmd", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "network.sends_per_cmd", Unit: "count", Better: "lower"},
	{Name: "node.busy_us_per_cmd", Unit: "us", Better: "lower"},

	{Name: "obs.record_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "obs.us_per_cmd", Unit: "us", Better: "lower"},
	{Name: "tracing.dropped_spans", Unit: "count", Better: "lower"},
}

// benchmarkJSON renders the BENCHMARK.json contract from the tables
// above.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer, // no bounds: omitted
	}
	for _, w := range workloads {
		if !w.Manual {
			doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
		}
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(out, '\n')
}
