package repro

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/detector/source"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/wire"
)

// ---------------------------------------------------------------------
// Experiment benchmarks: one per table/figure (E1–E9). Each iteration
// regenerates the artifact on scaled-down sweeps; run `cmd/benchtables`
// for the full-size tables recorded in EXPERIMENTS.md.
// ---------------------------------------------------------------------

var benchOpts = experiments.Opts{Quick: true, Seeds: 1}

func BenchmarkE1SteadyStateMessages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E1SteadyStateMessages(benchOpts)
	}
}

func BenchmarkE2ConvergenceSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E2ConvergenceSeries(benchOpts)
	}
}

func BenchmarkE3StabilizationVsGST(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E3StabilizationVsGST(benchOpts)
	}
}

func BenchmarkE4CrashRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E4CrashRecovery(benchOpts)
	}
}

func BenchmarkE5LinksUsed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E5LinksUsed(benchOpts)
	}
}

func BenchmarkE6ConsensusCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E6ConsensusCost(benchOpts)
	}
}

func BenchmarkE7RepeatedConsensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E7RepeatedConsensus(benchOpts)
	}
}

func BenchmarkE8AssumptionMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E8AssumptionMatrix(experiments.Opts{Quick: true, Seeds: 1})
	}
}

func BenchmarkE9Ablations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E9Ablations(benchOpts)
	}
}

func BenchmarkE10RelayedPaths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E10RelayedPaths(benchOpts)
	}
}

func BenchmarkE11FSourceBoundary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E11FSourceBoundary(experiments.Opts{Quick: true, Seeds: 1})
	}
}

func BenchmarkE12CommitIndex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E12CommitIndex(benchOpts)
	}
}

func BenchmarkE13PartitionHeal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E13PartitionHeal(benchOpts)
	}
}

func BenchmarkE14LeaseReads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E14LeaseReads(benchOpts)
	}
}

// ---------------------------------------------------------------------
// Substrate micro-benchmarks.
// ---------------------------------------------------------------------

// BenchmarkSimKernel measures raw event throughput of the discrete-event
// kernel (schedule + fire).
func BenchmarkSimKernel(b *testing.B) {
	k := sim.NewKernel(1)
	var tick func()
	remaining := b.N
	tick = func() {
		if remaining > 0 {
			remaining--
			k.Schedule(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	k.Schedule(0, tick)
	k.RunUntil(sim.TimeMax, nil)
}

// BenchmarkWireRoundTrip measures codec marshal+unmarshal of a typical
// heartbeat.
func BenchmarkWireRoundTrip(b *testing.B) {
	codec := wire.NewCodec()
	msg := core.LeaderMsg{Epoch: 123456}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := codec.Marshal(msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := codec.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireVectorRoundTrip exercises the vector-carrying heartbeat of
// the gossiped-counter detector.
func BenchmarkWireVectorRoundTrip(b *testing.B) {
	codec := wire.NewCodec()
	msg := sourceAlive(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := codec.Marshal(msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := codec.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSinkRecordSend measures the steady-state observer record path:
// one pre-interned OnSend into a send log at its window. This is the
// per-message instrumentation cost every simulated or live send pays; it
// must stay at 0 allocs/op (a 2 KiB chunk per two thousand of these sends).
func BenchmarkSinkRecordSend(b *testing.B) {
	const n, window = 8, 1024
	stats := metrics.NewMessageStatsWindow(n, window)
	kind := obs.Intern("LEADER")
	// Fill past the window (steady state: every send evicts one) before
	// measurement starts.
	for i := 0; i < n*window+1; i++ {
		stats.OnSend(sim.Time(i), i%n, (i+1)%n, kind)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.OnSend(sim.Time(i), i%n, (i+1)%n, kind)
	}
}

// BenchmarkSinkRecordSendParallel measures the same path with every
// process recording from its own goroutine — the live-transport shape the
// sharding exists for.
func BenchmarkSinkRecordSendParallel(b *testing.B) {
	const n, window = 8, 1024
	stats := metrics.NewMessageStatsWindow(n, window)
	kind := obs.Intern("LEADER")
	for i := 0; i < n*window+1; i++ {
		stats.OnSend(sim.Time(i), i%n, (i+1)%n, kind)
	}
	var nextID atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		from := int(nextID.Add(1)-1) % n
		to := (from + 1) % n
		var t sim.Time
		for pb.Next() {
			t++
			stats.OnSend(t, from, to, kind)
		}
	})
}

// BenchmarkWireHeartbeatEncode measures encoding the steady-state leader
// heartbeat into a reused buffer; with the pooled append-style path this
// must stay allocation-free.
func BenchmarkWireHeartbeatEncode(b *testing.B) {
	codec := wire.NewCodec()
	// Box the message once: the transports hold node.Message interfaces, so
	// the per-send cost being measured starts at the interface call.
	var msg node.Message = core.LeaderMsg{Epoch: 123456}
	buf, err := codec.MarshalAppend(nil, msg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = codec.MarshalAppend(buf[:0], msg)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireEnvelopeEncode measures the full envelope (sender header +
// heartbeat) the TCP transport frames per message.
func BenchmarkWireEnvelopeEncode(b *testing.B) {
	codec := wire.NewCodec()
	var msg node.Message = core.LeaderMsg{Epoch: 123456}
	buf, err := codec.MarshalEnvelopeAppend(nil, 3, msg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = codec.MarshalEnvelopeAppend(buf[:0], 3, msg)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireHeartbeatDecode measures the receive half on its own.
func BenchmarkWireHeartbeatDecode(b *testing.B) {
	codec := wire.NewCodec()
	data, err := codec.Marshal(core.LeaderMsg{Epoch: 123456})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeaderElection10 measures a full 10-process election to
// quiescence on the simulator.
func BenchmarkLeaderElection10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := scenario.Build(scenario.Config{
			N: 10, Seed: int64(i), Algorithm: scenario.AlgoCore, Regime: scenario.RegimeAllTimely,
		})
		if err != nil {
			b.Fatal(err)
		}
		sys.Run(time.Second)
		if !sys.OmegaReport().Holds {
			b.Fatal("did not converge")
		}
	}
}

// BenchmarkSimulatedSecond40AllToAll measures simulating one virtual
// second of the heaviest workload in the suite (n=40 all-to-all).
func BenchmarkSimulatedSecond40AllToAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := scenario.Build(scenario.Config{
			N: 40, Seed: 1, Algorithm: scenario.AlgoAllToAll, Regime: scenario.RegimeAllTimely,
		})
		if err != nil {
			b.Fatal(err)
		}
		sys.Run(time.Second)
	}
	// One virtual second of n=40 all-to-all is ~156k messages.
	b.ReportMetric(156000, "virtual-msgs/op")
}

// BenchmarkWorldMessagePath measures the end-to-end simulated send →
// deliver path including metrics accounting.
func BenchmarkWorldMessagePath(b *testing.B) {
	w, err := node.NewWorld(node.WorldConfig{N: 2, Seed: 1, DefaultLink: network.Timely(time.Microsecond)})
	if err != nil {
		b.Fatal(err)
	}
	sink := &benchSink{}
	w.SetAutomaton(0, sink)
	w.SetAutomaton(1, sink)
	w.Start()
	env := w.Env(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Send(1, benchMsg{})
		w.RunFor(2 * time.Microsecond)
	}
}

type benchMsg struct{}

func (benchMsg) KindID() obs.Kind { return obs.Intern("BENCH") }

type benchSink struct{ got int }

func (s *benchSink) Start(node.Env)                {}
func (s *benchSink) Deliver(node.ID, node.Message) { s.got++ }
func (s *benchSink) Tick(string)                   {}

// sourceAlive builds a counter heartbeat of the given width.
func sourceAlive(n int) node.Message {
	counters := make([]uint64, n)
	for i := range counters {
		counters[i] = uint64(i) * 7
	}
	return source.NewAliveMsg(counters)
}

// Example regenerating the suite (kept out of the benchmark loop).
func ExampleRunExperiment() {
	if err := RunExperiment(io.Discard, "E5", ExperimentOpts{Quick: true, Seeds: 1}); err != nil {
		fmt.Println("error:", err)
	}
	fmt.Println("ok")
	// Output: ok
}
