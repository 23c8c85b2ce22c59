package transport

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/node"
)

// epochRecorder is a silent automaton that records every LeaderMsg epoch
// it receives, in delivery order.
type epochRecorder struct {
	mu     sync.Mutex
	epochs []uint64
}

func (r *epochRecorder) Start(node.Env) {}
func (r *epochRecorder) Tick(string)    {}
func (r *epochRecorder) Deliver(from node.ID, m node.Message) {
	if lm, ok := m.(core.LeaderMsg); ok {
		r.mu.Lock()
		r.epochs = append(r.epochs, lm.Epoch)
		r.mu.Unlock()
	}
}

func (r *epochRecorder) snapshot() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.epochs...)
}

// TestTCPBatchedDeliveryPreservesOrder floods one link faster than the
// sender drains it, so frames coalesce into multi-frame vectored writes,
// and asserts the receiver still observes every message exactly once and
// in FIFO order — batching must be invisible to the protocol layer.
func TestTCPBatchedDeliveryPreservesOrder(t *testing.T) {
	const burst = 500
	recs := []*epochRecorder{{}, {}}
	autos := []node.Automaton{recs[0], recs[1]}
	c, err := NewTCPCluster(Config{N: 2, Seed: 30, Quiet: true, SendQueue: burst + 8}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	for e := uint64(1); e <= burst; e++ {
		c.Inject(0, 1, core.LeaderMsg{Epoch: e})
	}
	waitFor(t, 10*time.Second, func() bool {
		return len(recs[1].snapshot()) == burst
	}, "burst delivery")
	got := recs[1].snapshot()
	for i, e := range got {
		if e != uint64(i+1) {
			t.Fatalf("epoch at position %d = %d, want %d (reordered or lost under batching)", i, e, i+1)
		}
	}
}

// TestTCPBufferLifecycleExactOnce drives frames down every exit path the
// sender has — batched writes, queue-full drops, mid-batch write errors,
// failed redials, shutdown drains — and asserts the encode-buffer pool's
// get/put balance returns exactly to its baseline: each pooled buffer is
// released once and only once, whatever happened to its frame.
func TestTCPBufferLifecycleExactOnce(t *testing.T) {
	// Let stray buffers from earlier tests' delayed deliveries settle
	// before taking the baseline.
	settle := encBufs.Balance()
	waitFor(t, 2*time.Second, func() bool {
		b := encBufs.Balance()
		ok := b == settle
		settle = b
		return ok
	}, "pool baseline to settle")
	base := encBufs.Balance()

	autos, dets := liveDetectors(3)
	c, err := NewTCPCluster(Config{
		N: 3, Seed: 31, Quiet: true,
		SendQueue:    4,
		WriteTimeout: 200 * time.Millisecond,
	}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	waitFor(t, 10*time.Second, func() bool {
		l, ok := agreement(dets, nil)
		return ok && l == 0
	}, "agreement")

	// Kill process 1's endpoint: close its listener and sever every
	// established connection. Links into 1 now hit mid-batch write errors,
	// then failed redials.
	_ = c.listeners[1].Close()
	c.mu.Lock()
	for _, conn := range c.accepted {
		_ = conn.Close()
	}
	c.accepted = c.accepted[:0]
	c.mu.Unlock()

	// Flood the dead link with the tiny queue: frames pile up behind the
	// sender's backoff sleeps and overflow, exercising queue-full drops.
	dropped := c.Stats().Dropped()
	for i := 0; i < 400; i++ {
		c.Inject(0, 1, core.LeaderMsg{Epoch: uint64(i)})
	}
	waitFor(t, 10*time.Second, func() bool {
		return c.Stats().Dropped() > dropped
	}, "drops on the dead link")

	c.Stop()
	waitFor(t, 5*time.Second, func() bool {
		return encBufs.Balance() == base
	}, "pool balance to return to baseline")
	// A double put would drive the balance below base after the waiter
	// passes; give any straggler a moment and recheck.
	time.Sleep(50 * time.Millisecond)
	if got := encBufs.Balance(); got != base {
		t.Fatalf("pool balance = %d after quiesce, want %d (leak if higher, double put if lower)", got, base)
	}
}
