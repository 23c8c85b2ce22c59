// Package synod tests the single-decree consensus of requirement R3:
// Paxos whose proposer is the process Omega names, ballots round·n + id + 1.
// It has no code of its own. The decree is the first instance of an rsm log,
// so these tests run rsm (internal/consensus/rsm) through its exported
// surface and check what a single decree must keep: agreement and validity
// on instance 0, liveness with a correct majority, a linear message cost,
// and acceptor and proposer state that binds across a restart.
package synod

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
)

const ms = time.Millisecond

// cluster bundles a world running Omega+rsm on every process.
type cluster struct {
	world    *node.World
	nodes    []*rsm.Node
	proposed []consensus.Value
}

func newCluster(t *testing.T, n int, seed int64, link network.Profile) *cluster {
	t.Helper()
	w, err := node.NewWorld(node.WorldConfig{N: n, Seed: seed, DefaultLink: link})
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{world: w, nodes: make([]*rsm.Node, n)}
	for i := 0; i < n; i++ {
		det := core.New(core.WithEta(10 * ms))
		c.nodes[i] = rsm.New(det, rsm.Config{})
		w.SetAutomaton(node.ID(i), node.Compose(det, c.nodes[i]))
	}
	return c
}

// propose submits v at process i.
func (c *cluster) propose(i int, v consensus.Value) {
	c.nodes[i].Submit(v)
	c.proposed = append(c.proposed, v)
}

// proposeAll submits v<i> at every process i.
func (c *cluster) proposeAll() {
	for i := range c.nodes {
		c.propose(i, consensus.Value(fmt.Sprintf("v%d", i)))
	}
}

// decided returns the commands process i decided in instance 0, the decree.
func (c *cluster) decided(i int) ([]consensus.Value, bool) {
	if c.nodes[i].FirstGap() < 1 {
		return nil, false
	}
	var decree []consensus.Value
	c.nodes[i].Recorder().Each(func(d consensus.Decision) {
		if d.Instance == 0 {
			decree = append(decree, d.Value)
		}
	})
	return decree, true
}

// safety checks agreement everywhere and validity against what was
// proposed: any proposed command may land in any instance.
func (c *cluster) safety() consensus.SafetyReport {
	recs := make([]*consensus.Recorder, len(c.nodes))
	proposed := map[int][]consensus.Value{}
	for i, s := range c.nodes {
		recs[i] = s.Recorder()
		for inst := 0; inst <= s.HighestDecided(); inst++ {
			proposed[inst] = c.proposed
		}
	}
	return consensus.CheckSafety(consensus.SafetyInput{Recorders: recs, Proposed: proposed})
}

func TestAllDecideSameValue(t *testing.T) {
	c := newCluster(t, 5, 1, network.Timely(2*ms))
	c.world.Start()
	c.proposeAll()
	c.world.RunFor(2 * time.Second)
	var decision []consensus.Value
	for i := range c.nodes {
		v, ok := c.decided(i)
		if !ok || len(v) == 0 {
			t.Fatalf("p%d undecided", i)
		}
		if decision == nil {
			decision = v
		} else if !slices.Equal(v, decision) {
			t.Fatalf("p%d decided %q, others %q", i, v, decision)
		}
	}
	if rep := c.safety(); !rep.Holds() {
		t.Fatalf("safety: %v", rep.Violations)
	}
}

func TestDecidesDespiteLeaderCrash(t *testing.T) {
	c := newCluster(t, 5, 2, network.Timely(2*ms))
	c.world.Start()
	c.proposeAll()
	// Crash the initial leader almost immediately — often mid-ballot.
	c.world.CrashAt(0, sim.At(25*ms))
	c.world.RunFor(5 * time.Second)
	for i := 1; i < 5; i++ {
		if _, ok := c.decided(i); !ok {
			t.Fatalf("p%d undecided after leader crash", i)
		}
	}
	if rep := c.safety(); !rep.Holds() {
		t.Fatalf("safety: %v", rep.Violations)
	}
}

func TestMinorityCrashStillLive(t *testing.T) {
	c := newCluster(t, 5, 3, network.Timely(2*ms))
	c.world.Start()
	c.proposeAll()
	c.world.CrashAt(3, sim.At(10*ms))
	c.world.CrashAt(4, sim.At(15*ms))
	c.world.RunFor(5 * time.Second)
	for i := 0; i < 3; i++ {
		if _, ok := c.decided(i); !ok {
			t.Fatalf("p%d undecided with minority crashed", i)
		}
	}
	if rep := c.safety(); !rep.Holds() {
		t.Fatalf("safety: %v", rep.Violations)
	}
}

func TestSafetyUnderAdversarialDelaysManySeeds(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		c := newCluster(t, 5, seed, network.Reliable(ms, 80*ms))
		c.world.Start()
		c.proposeAll()
		// Crash up to two processes at pseudo-random times.
		c.world.CrashAt(node.ID(seed%5), sim.At(time.Duration(seed%13)*7*ms))
		c.world.CrashAt(node.ID((seed+2)%5), sim.At(time.Duration(seed%29)*5*ms))
		c.world.RunFor(15 * time.Second)
		if rep := c.safety(); !rep.Holds() {
			t.Fatalf("seed %d: safety violated: %v", seed, rep.Violations)
		}
		// Three correct processes remain: liveness must hold too.
		for i := 0; i < 5; i++ {
			if c.world.Alive(node.ID(i)) {
				if _, ok := c.decided(i); !ok {
					t.Fatalf("seed %d: correct p%d undecided after 15s", seed, i)
				}
			}
		}
	}
}

func TestDecisionCostIsLinear(t *testing.T) {
	const n = 7
	c := newCluster(t, n, 6, network.Timely(2*ms))
	c.world.Start()
	c.proposeAll()
	c.world.RunFor(2 * time.Second)
	if _, ok := c.decided(0); !ok {
		t.Fatal("undecided")
	}
	// Count only consensus traffic (exclude Omega heartbeats). A stable
	// leader decides in prepare/promise/accept/accepted/decide plus the
	// forwarded requests: well below the Θ(n²) of a rotating-coordinator
	// protocol, which exceeds n² from the decide echo alone.
	kinds := []string{rsm.KindPrepare, rsm.KindPromise, rsm.KindNack, rsm.KindAccept,
		rsm.KindAccepted, rsm.KindDecide, rsm.KindLearn, rsm.KindRequest}
	var total uint64
	for _, k := range kinds {
		total += c.world.Stats.KindCount(k)
	}
	if total > uint64(8*(n-1)) {
		t.Fatalf("consensus messages = %d, want <= %d (Θ(n))", total, 8*(n-1))
	}
}

func TestProposeAfterStartStillDecides(t *testing.T) {
	c := newCluster(t, 3, 7, network.Timely(2*ms))
	c.world.Start()
	c.world.RunFor(200 * ms)
	// Nobody proposed yet: no decision possible.
	for i := range c.nodes {
		if _, ok := c.decided(i); ok {
			t.Fatalf("p%d decided without any proposal", i)
		}
	}
	c.propose(2, "late")
	c.world.RunFor(2 * time.Second)
	for i := range c.nodes {
		v, ok := c.decided(i)
		if !ok {
			t.Fatalf("p%d undecided", i)
		}
		if !slices.Equal(v, []consensus.Value{"late"}) {
			t.Fatalf("p%d decided %q", i, v)
		}
	}
}

func TestDecidedProcessAnswersLearn(t *testing.T) {
	c := newCluster(t, 3, 8, network.Timely(2*ms))
	c.world.Start()
	c.proposeAll()
	c.world.RunFor(2 * time.Second)
	if _, ok := c.decided(0); !ok {
		t.Fatal("undecided")
	}
	// A LEARN from the log's start delivered directly must be answered
	// with a DECIDE for every decided instance, the decree first.
	gap := c.nodes[0].FirstGap()
	if gap != c.nodes[0].HighestDecided()+1 {
		t.Fatalf("first gap %d below highest decided %d after a quiet second", gap, c.nodes[0].HighestDecided())
	}
	before := c.world.Stats.KindCount(rsm.KindDecide)
	c.nodes[0].Deliver(1, rsm.LearnMsg{FirstGap: 0})
	if got := c.world.Stats.KindCount(rsm.KindDecide); got != before+uint64(gap) {
		t.Fatalf("decide count %d → %d, want %d more", before, got, gap)
	}
}

func TestPromiseQuorumAdoptsHighestAccepted(t *testing.T) {
	// Unit-level: feed promises directly. p0 leads a 3-process system.
	r := rsm.New(consensus.StaticLeader(0), rsm.Config{})
	env := newFakeEnv(0, 3)
	r.Submit("mine")
	r.Start(env) // opens the first ballot (self-promise included)
	out := env.drain()
	b, ok := prepared(out)
	if !ok {
		t.Fatalf("no PREPARE on start: %+v", out)
	}
	if accepts := acceptsOf(out); len(accepts) != 0 {
		t.Fatalf("proposed %v before a quorum promised", accepts)
	}
	// A promise reporting an accepted value at another ballot must be
	// adopted instead of our own proposal.
	r.Deliver(1, rsm.PromiseMsg{B: b, Entries: []rsm.PromEntry{
		{Inst: 0}, {Inst: 0, AccB: consensus.MakeBallot(0, 2, 3), AccV: "theirs"},
	}})
	if !r.IsLeader() {
		t.Fatal("quorum promise did not complete phase 1")
	}
	accepts := acceptsOf(env.drain())
	if accepts[0] != "theirs" {
		t.Fatalf("instance 0 proposed %q, want the adopted value (accepts %v)", accepts[0], accepts)
	}
}

func TestNackForcesHigherBallot(t *testing.T) {
	r := rsm.New(consensus.StaticLeader(0), rsm.Config{})
	env := newFakeEnv(0, 3)
	r.Submit("mine")
	r.Start(env)
	first, ok := prepared(env.drain())
	if !ok {
		t.Fatal("no PREPARE on start")
	}
	promised := consensus.MakeBallot(5, 1, 3)
	r.Deliver(1, rsm.NackMsg{B: first, Promised: promised})
	env.now = env.now.Add(time.Hour) // past any retry backoff
	env.drive(t, r)
	retry, ok := prepared(env.drain())
	if !ok {
		t.Fatal("no re-PREPARE after the nack")
	}
	if retry <= promised {
		t.Fatalf("retry ballot %v does not outbid the nack's %v", retry, promised)
	}
	if retry.Owner(3) != 0 {
		t.Fatalf("retry ballot owner = %v", retry.Owner(3))
	}
}

func TestAcceptorRejectsStaleBallot(t *testing.T) {
	r := rsm.New(consensus.StaticLeader(1), rsm.Config{})
	env := newFakeEnv(2, 3)
	r.Start(env)
	high := consensus.MakeBallot(4, 1, 3)
	r.Deliver(1, rsm.PrepareMsg{B: high})
	env.drain()
	low := consensus.MakeBallot(1, 0, 3)
	r.Deliver(0, rsm.PrepareMsg{B: low})
	out := env.drain()
	if len(out) != 1 {
		t.Fatalf("replies = %v", out)
	}
	nack, ok := out[0].msg.(rsm.NackMsg)
	if !ok || nack.Promised != high {
		t.Fatalf("reply = %+v, want NACK with promised %v", out[0].msg, high)
	}
	r.Deliver(0, &rsm.AcceptMsg{B: low, Inst: 0, V: "x"})
	out = env.drain()
	if len(out) != 1 {
		t.Fatalf("replies = %v", out)
	}
	if nack, ok := out[0].msg.(rsm.NackMsg); !ok || nack.Promised != high {
		t.Fatalf("accept at stale ballot answered with %+v", out[0].msg)
	}
}
