package core

import (
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
)

// partitionedWorld builds an n-process world, isolates the initial leader
// p0 during [from, to) (dropping everything — harsher than the paper's
// reliable-link model), then heals.
func partitionedWorld(t *testing.T, seed int64, opts ...Option) (*node.World, []*Detector) {
	t.Helper()
	w, ds := buildWorld(t, 5, seed, network.Timely(2*ms), 0, opts...)
	w.Start()
	w.Kernel.ScheduleAt(sim.At(300*ms), func() { w.Fabric.Isolate(0) })
	w.Kernel.ScheduleAt(sim.At(1500*ms), func() { w.Fabric.Rejoin(0) })
	return w, ds
}

// TestLossyPartitionStrandsStaleLeader documents the limitation the paper's
// reliable-link assumption avoids: if a partition *drops* the accusations
// aimed at the isolated leader, after healing it keeps believing it leads
// (its self-count never caught up) and the system is stuck with two
// senders.
func TestLossyPartitionStrandsStaleLeader(t *testing.T) {
	w, ds := partitionedWorld(t, 1)
	w.RunFor(10 * time.Second)
	if got := ds[0].Leader(); got != 0 {
		t.Fatalf("p0 leader = p%v; expected it to remain stuck on itself", got)
	}
	if got := ds[1].Leader(); got == 0 {
		t.Fatalf("p1 still trusts the stale p0")
	}
	senders := w.Stats.SendersSince(sim.At(9 * time.Second))
	if len(senders) != 2 {
		t.Fatalf("steady-state senders = %v, want the split pair", senders)
	}
}

// TestRebuffHealsPartition shows the WithRebuff extension repairing the
// same scenario: the first heartbeat the healed p0 sends is answered with
// its real accusation count, p0 demotes itself, and the system returns to
// one leader and one sender.
func TestRebuffHealsPartition(t *testing.T) {
	w, ds := partitionedWorld(t, 1, WithRebuff())
	w.RunFor(10 * time.Second)
	leader := ds[1].Leader()
	for i, d := range ds {
		if d.Leader() != leader {
			t.Fatalf("p%d trusts p%v, others p%v", i, d.Leader(), leader)
		}
	}
	if leader == 0 {
		t.Fatalf("stale p0 still leads after rebuff")
	}
	senders := w.Stats.SendersSince(sim.At(9 * time.Second))
	if len(senders) != 1 || senders[0] != int(leader) {
		t.Fatalf("steady-state senders = %v, want only p%v", senders, leader)
	}
	// Rebuffs are finite: none in the steady-state tail.
	if got := w.Stats.KindCount(KindRebuff); got == 0 {
		t.Fatal("no rebuffs were sent at all")
	}
}

// TestRebuffNeverFiresUnderModelAssumptions: with reliable (here timely)
// links and no partition, heartbeat epochs are always current, so the
// extension costs nothing.
func TestRebuffNeverFiresUnderModelAssumptions(t *testing.T) {
	w, ds := buildWorld(t, 5, 2, network.Timely(2*ms), 0, WithRebuff())
	w.Start()
	w.CrashAt(0, sim.At(300*ms))
	w.RunFor(5 * time.Second)
	assertAgreement(t, w, ds)
	if got := w.Stats.KindCount(KindRebuff); got != 0 {
		t.Fatalf("rebuffs sent in a well-behaved run: %d", got)
	}
}

// TestRebuffUnitSemantics checks the message handlers directly.
func TestRebuffUnitSemantics(t *testing.T) {
	d, env := startDetector(0, 3, WithRebuff())
	env.drain()
	// A heartbeat from p2 claiming epoch 1 while we know 5 gets rebuffed.
	d.counter[2] = 5
	d.Deliver(2, LeaderMsg{Epoch: 1})
	out := env.drain()
	found := false
	for _, s := range out {
		if rb, ok := s.msg.(RebuffMsg); ok {
			found = true
			if s.to != 2 || rb.Epoch != 5 {
				t.Fatalf("rebuff = %+v to p%v", rb, s.to)
			}
		}
	}
	if !found {
		t.Fatalf("no rebuff sent: %v", out)
	}
	// Receiving a rebuff raises our own count (and only raises).
	d.Deliver(1, RebuffMsg{Epoch: 9})
	if d.Counter(0) != 9 {
		t.Fatalf("counter = %d, want 9", d.Counter(0))
	}
	d.Deliver(1, RebuffMsg{Epoch: 3})
	if d.Counter(0) != 9 {
		t.Fatalf("counter rolled back to %d", d.Counter(0))
	}
}

// TestNoRebuffWithoutOption: the base algorithm must not send rebuffs.
func TestNoRebuffWithoutOption(t *testing.T) {
	d, env := startDetector(0, 3)
	env.drain()
	d.counter[2] = 5
	d.Deliver(2, LeaderMsg{Epoch: 1})
	for _, s := range env.drain() {
		if _, ok := s.msg.(RebuffMsg); ok {
			t.Fatal("rebuff sent without the option")
		}
	}
}
