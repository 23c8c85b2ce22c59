package transport

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/faultline"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/node"
)

// waitFor polls cond every millisecond until it holds or the deadline
// passes.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// liveDetectors builds n core detectors with a fast eta for real time.
func liveDetectors(n int) ([]node.Automaton, []*core.Detector) {
	autos := make([]node.Automaton, n)
	dets := make([]*core.Detector, n)
	for i := 0; i < n; i++ {
		dets[i] = core.New(core.WithEta(5 * time.Millisecond))
		autos[i] = dets[i]
	}
	return autos, dets
}

func agreement(dets []*core.Detector, skip map[int]bool) (node.ID, bool) {
	leader := node.None
	for i, d := range dets {
		if skip[i] {
			continue
		}
		l := d.History().Current()
		if leader == node.None {
			leader = l
		} else if l != leader {
			return node.None, false
		}
	}
	return leader, leader != node.None
}

// expectSteadySender polls 300ms windows until one passes in which only
// leader sent while every detector output leader throughout — the
// steady-state communication-efficiency property. A window counts only if
// its sole sender is leader, every detector outputs leader at its end, and
// no detector changed leader during it: a window in which Ω moved shows a
// sole sender that leads for an instant, not the steady state. Polling
// (rather than one fixed settle-then-measure window) keeps the check
// robust on a loaded machine, where a late heartbeat can trigger a stray
// accusation well after initial agreement. It is called once dets agree
// on leader, and when no window passes it names that premise: the leader
// each detector outputs, and the leader changes each made since the call.
func expectSteadySender(t *testing.T, clock *station, stats *metrics.MessageStats, dets []*core.Detector, leader int) {
	t.Helper()
	changes := func() []int {
		counts := make([]int, len(dets))
		for i, d := range dets {
			counts[i] = d.History().NumChanges()
		}
		return counts
	}
	// steady reports whether every detector outputs leader and has made
	// no change since it had made before[i].
	steady := func(before []int) bool {
		for i, d := range dets {
			if h := d.History(); h.Current() != node.ID(leader) || h.NumChanges() != before[i] {
				return false
			}
		}
		return true
	}
	agreed := changes()
	deadline := time.Now().Add(10 * time.Second)
	for {
		before := changes()
		mark := clock.Now()
		time.Sleep(300 * time.Millisecond)
		senders := stats.SendersSince(mark)
		if len(senders) == 1 && senders[0] == leader && steady(before) {
			return
		}
		if time.Now().After(deadline) {
			var outputs, moves []string
			for i, d := range dets {
				outputs = append(outputs, fmt.Sprintf("p%d:p%d", i, d.History().Current()))
				for _, c := range d.History().Changes()[agreed[i]:] {
					moves = append(moves, fmt.Sprintf("p%d→p%d at %v", i, c.Leader, c.At))
				}
			}
			t.Fatalf("no window with p%d the sole sender and every detector on p%d throughout; the last saw senders %v; the detectors output %v, and changed leader %d times since the check began: %v",
				leader, leader, senders, outputs, len(moves), moves)
		}
	}
}

func TestMemClusterWithLossStillElectsEventually(t *testing.T) {
	// The core algorithm formally needs reliable links; light loss makes
	// it re-elect occasionally but the gossip keeps recovering. Use the
	// source-omega... keep core with very light loss and only assert no
	// deadlock in the runtime (processes keep exchanging messages).
	autos, _ := liveDetectors(3)
	inj := mustInjector(t, 3, 4, faultline.Plan{Default: network.Lossy(0, time.Millisecond, 0.05)})
	c, err := NewTCPCluster(Config{N: 3, Seed: 4, Quiet: true, Fault: inj}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	time.Sleep(200 * time.Millisecond)
	if c.Stats().TotalSent() == 0 {
		t.Fatal("no traffic at all under loss")
	}
}

func TestMemClusterReplicatedLog(t *testing.T) {
	const n = 3
	autos := make([]node.Automaton, n)
	dets := make([]*core.Detector, n)
	logs := make([]*rsm.Node, n)
	for i := 0; i < n; i++ {
		dets[i] = core.New(core.WithEta(5 * time.Millisecond))
		logs[i] = rsm.New(dets[i], rsm.Config{DriveInterval: 10 * time.Millisecond})
		autos[i] = node.Compose(dets[i], logs[i])
	}
	c, err := NewTCPCluster(Config{N: n, Seed: 5, Quiet: true}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	waitFor(t, 5*time.Second, func() bool {
		l := dets[0].History().Current()
		return l == 0 && dets[1].History().Current() == 0 && dets[2].History().Current() == 0
	}, "leader stabilization")
	// Submit is not goroutine-safe, so push commands through the
	// leader's Deliver path with request messages. A request that
	// arrives before the leader's ballot is prepared is dropped (real
	// clients re-forward), so keep sending until the log grows.
	waitFor(t, 10*time.Second, func() bool {
		for i := 0; i < 5; i++ {
			c.Inject(1, 0, rsm.RequestMsg{V: consensus.Value(fmt.Sprintf("cmd%d", i))})
		}
		for _, l := range logs {
			if l.Recorder().Count() < 5 {
				return false
			}
		}
		return true
	}, "all replicas decide 5 instances")
	recs := make([]*consensus.Recorder, n)
	for i, l := range logs {
		recs[i] = l.Recorder()
	}
	rep := consensus.CheckSafety(consensus.SafetyInput{Recorders: recs})
	if !rep.Agreement {
		t.Fatalf("disagreement: %v", rep.Violations)
	}
}

func TestConfigValidation(t *testing.T) {
	autos, _ := liveDetectors(2)
	if _, err := NewTCPCluster(Config{N: 1}, autos[:1]); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, err := NewTCPCluster(Config{N: 3}, autos); err == nil {
		t.Fatal("wrong automaton count accepted")
	}
}

func TestHistoriesAreConcurrencySafe(t *testing.T) {
	// Reading detector state from the test goroutine while node loops
	// run exercises the History mutex; run with -race to verify.
	autos, dets := liveDetectors(3)
	c, err := NewTCPCluster(Config{N: 3, Seed: 10, Quiet: true}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	deadline := time.Now().Add(300 * time.Millisecond)
	var h *detector.History
	for time.Now().Before(deadline) {
		for _, d := range dets {
			h = d.History()
			_ = h.Current()
			_ = h.NumChanges()
		}
	}
}
