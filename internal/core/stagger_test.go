package core

import (
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
)

// buildStaggered boots n processes one by one (p4 first, p0 last), a
// rolling deployment. Messages to a not-yet-booted process are lost, so —
// like the lossy partition of E13 — a rollout sits outside the paper's
// reliable-link model: accusations against a process that "does not exist
// yet" are swallowed, and its self-count can lag forever.
func buildStaggered(t *testing.T, opts ...Option) (*node.World, []*Detector) {
	t.Helper()
	const n = 5
	starts := make([]sim.Time, n)
	for i := range starts {
		starts[i] = sim.At(time.Duration(n-1-i) * 120 * ms)
	}
	w, err := node.NewWorld(node.WorldConfig{
		N: n, Seed: 3,
		DefaultLink: network.Timely(2 * ms),
		StartAt:     starts,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := make([]*Detector, n)
	for i := range ds {
		ds[i] = New(append([]Option{WithEta(eta)}, opts...)...)
		w.SetAutomaton(node.ID(i), ds[i])
	}
	w.Start()
	return w, ds
}

// TestStaggeredRolloutCanStrandWithoutRebuff documents the limitation: the
// base algorithm can deadlock in split-brain after a rollout, because the
// accusations aimed at late-booting processes were lost before they
// existed.
func TestStaggeredRolloutCanStrandWithoutRebuff(t *testing.T) {
	w, ds := buildStaggered(t)
	w.RunFor(5 * time.Second)
	// For this seed, p1 never learns it was accused while unborn and
	// trusts itself next to the majority's leader.
	if ds[1].Leader() == ds[2].Leader() {
		t.Skip("seed converged; the strand is schedule-dependent")
	}
	senders := w.Stats.Snapshot().SendersSince(sim.At(4 * time.Second))
	if len(senders) < 2 {
		t.Fatalf("expected a split-brain sender pair, got %v", senders)
	}
}

// TestStaggeredRolloutConvergesWithRebuff: the rebuff extension repairs
// rollouts exactly as it repairs healed partitions — the stale process's
// first heartbeat is answered with its true accusation count.
func TestStaggeredRolloutConvergesWithRebuff(t *testing.T) {
	w, ds := buildStaggered(t, WithRebuff())
	w.RunFor(5 * time.Second)
	leader := assertAgreement(t, w, ds)
	senders := w.Stats.Snapshot().SendersSince(sim.At(4 * time.Second))
	if len(senders) != 1 || senders[0] != int(leader) {
		t.Fatalf("steady-state senders = %v, leader p%v", senders, leader)
	}
	// The earliest-booting process p4 led itself at some point during
	// its solo phase (it cycles through the unborn lower ids first).
	ledItself := false
	for _, c := range ds[4].History().Changes() {
		if c.Leader == 4 {
			ledItself = true
			break
		}
	}
	if !ledItself {
		t.Fatalf("p4 never led during the rollout: %v", ds[4].History().Changes())
	}
}
