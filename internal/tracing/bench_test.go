package tracing

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkTracingOff measures the disabled-tracing tax on the consensus
// hot path: the nil-tracer call shape Submit/pump/propose/apply
// make per command. It must stay at 0 allocs/op — tracing off is the
// default for every sim and bench run, so any regression here lands
// directly in the engine's steady-state numbers.
func BenchmarkTracingOff(b *testing.B) {
	tr := Nop.Tracer(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := tr.StartTrace(sim.Time(i), "request")
		tr.Record(sim.Time(i), sim.Time(i+1), ctx, "queue", -1, "")
		child := tr.Start(sim.Time(i), ctx, "quorum")
		tr.Event(sim.Time(i), child, "accepted", 1)
		tr.End(sim.Time(i+1), child)
		tr.Mark(sim.Time(i), "leader-change", -1)
	}
}

// BenchmarkTracingSampledOut measures the enabled-but-not-sampled path:
// one shared atomic at ingress, nothing downstream.
func BenchmarkTracingSampledOut(b *testing.B) {
	s := New(Config{Procs: 1, SampleEvery: 1 << 40})
	tr := s.Tracer(0)
	tr.StartTrace(0, "request") // burn the first sampling decision
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := tr.StartTrace(sim.Time(i), "request")
		tr.Record(sim.Time(i), sim.Time(i+1), ctx, "queue", -1, "")
		tr.End(sim.Time(i+1), ctx)
	}
}

// BenchmarkTracingOn measures the full record path with the pooled span
// ring at steady state (the ring is full, so every push recycles).
func BenchmarkTracingOn(b *testing.B) {
	s := New(Config{Procs: 1})
	tr := s.Tracer(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := tr.StartTrace(sim.Time(i), "request")
		tr.Record(sim.Time(i), sim.Time(i+1), ctx, "queue", -1, "")
	}
}

// BenchmarkTriggerCapped measures a trigger past its reason's cap — what
// every dropped frame costs while a queue sheds load, from every link
// sender at once. It must stay at 0 allocs/op and take no lock.
func BenchmarkTriggerCapped(b *testing.B) {
	s := New(Config{Procs: 1, Dir: b.TempDir()})
	sink := s.Sink()
	for i := 0; i < maxDumps; i++ {
		sink.OnDrop(0, 0, 0, 0) // the dumps the cap allows
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			sink.OnDrop(sim.Time(i), 0, 0, 0)
		}
	})
}
