package network

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

type benchPayload struct{ seq uint64 }

// BenchmarkFabricSendSteadyState measures the full steady-state send path —
// accounting sink, link profile draw, delivery scheduling, and delivery —
// the way a stable leader's heartbeat pays it every η. It must stay at
// 0 allocs/op: delivery records and kernel events are pooled, and the kind
// is pre-interned.
func BenchmarkFabricSendSteadyState(b *testing.B) {
	k := sim.NewKernel(1)
	f, err := NewFabric(k, 2, Timely(time.Millisecond), metrics.NewMessageStats(2))
	if err != nil {
		b.Fatal(err)
	}
	delivered := 0
	f.SetDeliver(func(from, to int, payload any) { delivered++ })
	var payload any = benchPayload{}
	kind := obs.Intern("BENCH") // protocols pre-intern at construction
	// Warm the pools.
	for i := 0; i < 2048; i++ {
		f.Send(0, 1, kind, payload)
		for k.Step() {
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Send(0, 1, kind, payload)
		for k.Step() {
		}
	}
	if delivered == 0 {
		b.Fatal("nothing delivered")
	}
}
