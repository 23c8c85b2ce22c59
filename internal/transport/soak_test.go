package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/faultline"
	"repro/internal/network"
	"repro/internal/node"
)

// soakReplicas builds n composed detector+replicated-log automatons.
// The detectors run with the rebuff extension: pre-GST loss and
// partitions desynchronize accusation counters, and without stale-leader
// rebuffs a healed cluster can deadlock with every process electing
// itself (each ignoring the others' stale-epoch heartbeats forever).
func soakReplicas(n int) ([]node.Automaton, []*core.Detector, []*rsm.Node) {
	autos := make([]node.Automaton, n)
	dets := make([]*core.Detector, n)
	logs := make([]*rsm.Node, n)
	for i := 0; i < n; i++ {
		dets[i] = core.New(core.WithEta(5*time.Millisecond), core.WithRebuff())
		logs[i] = rsm.New(dets[i], rsm.Config{DriveInterval: 10 * time.Millisecond})
		autos[i] = node.Compose(dets[i], logs[i])
	}
	return autos, dets, logs
}

// pumpCommands has a client of the first correct replica submit, once,
// what the correct replicas lack of target commands, and waits until each
// has decided that many.
func pumpCommands(t *testing.T, c *TCPCluster, logs []*rsm.Node, correct []int, prefix string, target int, bound time.Duration) {
	t.Helper()
	at, need := node.ID(correct[0]), 0
	for _, p := range correct {
		need = max(need, target-logs[p].Recorder().Count())
	}
	for i := 0; i < need; i++ {
		c.Inject(at, at, rsm.RequestMsg{V: consensus.Value(fmt.Sprintf("%s-%d", prefix, i))})
	}
	waitFor(t, bound, func() bool {
		for _, p := range correct {
			if logs[p].Recorder().Count() < target {
				return false
			}
		}
		return true
	}, prefix+" consensus progress")
}

// skipAllBut returns the agreement-skip map excluding everything outside
// keep.
func skipAllBut(n int, keep []int) map[int]bool {
	skip := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		skip[i] = true
	}
	for _, p := range keep {
		skip[p] = false
	}
	return skip
}

// TestTCPClientCommandsSurviveALeaderCrash: clients of the two followers
// of three enter distinct commands, each at its own replica
// (Inject(i, i, …)), and the leader is crashed mid-stream. A follower keeps
// what entered at it and forwards it again to the successor, so every
// command is applied at both survivors; at least once, so a duplicate
// counts once.
func TestTCPClientCommandsSurviveALeaderCrash(t *testing.T) {
	const n, perClient = 3, 200
	autos, dets, logs := soakReplicas(n)
	c, err := NewTCPCluster(Config{N: n, Seed: 21, Quiet: true}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	var leader node.ID
	waitFor(t, 10*time.Second, func() bool {
		l, ok := agreement(dets, nil)
		leader = l
		return ok
	}, "initial agreement")
	var followers []node.ID
	var clients sync.WaitGroup
	for f := node.ID(0); f < n; f++ {
		if f == leader {
			continue
		}
		followers = append(followers, f)
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := 0; i < perClient; i++ {
				c.Inject(f, f, rsm.RequestMsg{V: consensus.Value(fmt.Sprintf("p%d-%d", f, i))})
				time.Sleep(500 * time.Microsecond)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	c.Crash(leader)
	clients.Wait()
	// missing lists the commands survivor p has not applied.
	missing := func(p node.ID) []string {
		applied := map[consensus.Value]bool{}
		logs[p].Recorder().Each(func(d consensus.Decision) { applied[d.Value] = true })
		var lost []string
		for _, f := range followers {
			for i := 0; i < perClient; i++ {
				if v := fmt.Sprintf("p%d-%d", f, i); !applied[consensus.Value(v)] {
					lost = append(lost, v)
				}
			}
		}
		return lost
	}
	deadline := time.Now().Add(20 * time.Second)
	for _, p := range followers {
		for lost := missing(p); len(lost) > 0; lost = missing(p) {
			if time.Now().After(deadline) {
				t.Fatalf("p%d never applied %d of the %d commands (p%d crashed): %.5q", p, len(lost), 2*perClient, leader, lost)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestChaosSoakTCP drives a live TCP cluster through the scripted fault
// plan of the acceptance criteria: commit entries, crash the leader, cut a
// minority partition, heal — then assert re-election, renewed consensus
// progress, and that no instance ever decided two values.
func TestChaosSoakTCP(t *testing.T) {
	// n = 5 so the quorum (3) survives the crash of p0 AND the cut of p4:
	// the majority side {1,2,3} can still decide during the partition.
	const n = 5
	const bound = 20 * time.Second
	commands := 5
	if testing.Short() {
		commands = 2
	}
	inj, err := faultline.New(n, 42, faultline.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	autos, dets, logs := soakReplicas(n)
	c, err := NewTCPCluster(Config{N: n, Seed: 42, Quiet: true, Fault: inj, WriteTimeout: 200 * time.Millisecond}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	// Phase 0: stabilize — on p0 unless a premature accusation on a busy
	// box has moved leadership off it for good — and commit a first batch.
	var dead node.ID
	waitFor(t, bound, func() bool {
		l, ok := agreement(dets, nil)
		dead = l
		return ok
	}, "initial agreement")
	pumpCommands(t, c, logs, []int{0, 1, 2, 3, 4}, "pre", commands, bound)

	// Phase 1: crash the leader; the survivors must re-elect.
	c.Crash(dead)
	var correct []int
	for i := 0; i < n; i++ {
		if node.ID(i) != dead {
			correct = append(correct, i)
		}
	}
	var newLeader node.ID
	waitFor(t, bound, func() bool {
		l, ok := agreement(dets, map[int]bool{int(dead): true})
		newLeader = l
		return ok && l != dead
	}, "re-election after leader crash")

	// Phase 2: cut the last survivor, a minority of one, away from the
	// other three. The majority must keep a leader; the one cut off may
	// elect whoever it likes but can never decide a consensus instance
	// alone.
	majority, cut := correct[:3], node.ID(correct[3])
	inj.Cut([]node.ID{cut}, []node.ID{node.ID(majority[0]), node.ID(majority[1]), node.ID(majority[2])})
	waitFor(t, bound, func() bool {
		l, ok := agreement(dets, skipAllBut(n, majority))
		return ok && l != dead && l != cut
	}, "majority agreement during partition")
	pumpCommands(t, c, logs, majority, "cut", commands+1, bound)

	// Phase 3: heal. Every correct process must converge on one leader.
	inj.Heal()
	waitFor(t, bound, func() bool {
		l, ok := agreement(dets, map[int]bool{int(dead): true})
		newLeader = l
		return ok && l != dead
	}, "convergence after heal")

	// Phase 4: consensus keeps making progress with the whole quorum.
	pumpCommands(t, c, logs, correct, "post", commands+2, bound)

	// Safety holds across everyone — crashed and once-partitioned
	// replicas included: no instance ever decided two values.
	recs := make([]*consensus.Recorder, n)
	for i, l := range logs {
		recs[i] = l.Recorder()
	}
	rep := consensus.CheckSafety(consensus.SafetyInput{Recorders: recs})
	if !rep.Agreement {
		t.Fatalf("consensus disagreement after chaos (final leader %v): %v", newLeader, rep.Violations)
	}
}

// TestChaosSoakPreGSTChaosHeals runs a live TCP cluster on
// eventually-timely links: before the wall-clock GST every link drops and
// delays wildly; from GST on the links are timely and the detectors must
// stabilize — the paper's GST model, on real sockets.
func TestChaosSoakPreGSTChaosHeals(t *testing.T) {
	const n = 3
	gst := 1500 * time.Millisecond
	if testing.Short() {
		gst = 400 * time.Millisecond
	}
	inj, err := faultline.New(n, 7, faultline.Plan{
		Default: network.EventuallyTimely(2*time.Millisecond, 30*time.Millisecond, 0.4),
		GST:     gst,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuff detectors: pre-GST loss desynchronizes accusation counters,
	// and the base algorithm (built for reliable links) can then deadlock
	// with every process electing itself — see soakReplicas.
	autos := make([]node.Automaton, n)
	dets := make([]*core.Detector, n)
	for i := 0; i < n; i++ {
		dets[i] = core.New(core.WithEta(5*time.Millisecond), core.WithRebuff())
		autos[i] = dets[i]
	}
	c, err := NewTCPCluster(Config{N: n, Seed: 7, Quiet: true, Fault: inj}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	time.Sleep(gst / 2)
	if c.Stats().Dropped() == 0 {
		t.Fatal("pre-GST chaos injected no drops")
	}
	waitFor(t, 20*time.Second, func() bool {
		_, ok := agreement(dets, nil)
		return ok && time.Since(c.start) > gst
	}, "post-GST stabilization")
}
