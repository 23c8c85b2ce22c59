package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/node"
)

// countingAutomaton counts deliveries and nothing else — the receive side
// of the throughput benchmarks.
type countingAutomaton struct{ delivered atomic.Uint64 }

func (a *countingAutomaton) Start(node.Env)                {}
func (a *countingAutomaton) Tick(string)                   {}
func (a *countingAutomaton) Deliver(node.ID, node.Message) { a.delivered.Add(1) }

// benchTCPSend measures end-to-end TCP link throughput: inject heartbeats
// on the 0→1 link as fast as the sender drains them and time until every
// one is delivered. Injection runs ahead of the sender (bounded by half
// the queue, so nothing ever hits the queue-full drop path), which is
// exactly the regime coalescing exists for: the sender finds frames
// already queued and flushes them with one vectored write.
func BenchmarkTCPSendBatched(b *testing.B) {
	const queue = 1 << 14
	recv := &countingAutomaton{}
	autos := []node.Automaton{&countingAutomaton{}, recv}
	c, err := NewTCPCluster(Config{
		N: 2, Seed: 1, Quiet: true,
		SendQueue: queue,
	}, autos)
	if err != nil {
		b.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	// Warm the link so the dial is outside the timed region.
	c.Inject(0, 1, core.LeaderMsg{Epoch: 0})
	for recv.delivered.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	// A steady-state heartbeat: the epoch is small and stable, so boxing
	// it into node.Message hits the runtime's static cache — the injection
	// path stays allocation-free, as it is in a real cluster.
	hb := core.LeaderMsg{Epoch: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for int64(i)+1-int64(recv.delivered.Load()) > queue/2 {
			time.Sleep(20 * time.Microsecond)
		}
		c.Inject(0, 1, hb)
	}
	total := uint64(b.N) + 1
	for recv.delivered.Load() < total {
		time.Sleep(50 * time.Microsecond)
	}
	b.StopTimer()
	if dropped := c.Stats().Dropped(); dropped != 0 {
		b.Fatalf("%d drops during benchmark — backpressure bound failed", dropped)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
}

// BenchmarkNewTCPCluster is what a three-process TCP cluster costs before
// its first message: build (listeners, six link senders), Start (accept
// loops, senders, every station's boot turn, node loops) and Stop. The
// automatons are idle, so no link dials: a link the steady state does not
// use costs its struct and nothing more.
func BenchmarkNewTCPCluster(b *testing.B) {
	autos := []node.Automaton{idleAutomaton{}, idleAutomaton{}, idleAutomaton{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := NewTCPCluster(Config{N: len(autos), Seed: int64(i), Quiet: true, SendQueue: 4096}, autos)
		if err != nil {
			b.Fatal(err)
		}
		c.Start()
		c.Stop()
	}
}
