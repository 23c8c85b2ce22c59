package rsm

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/sweep"
)

const ms = time.Millisecond

type cluster struct {
	world *node.World
	dets  []*core.Detector
	nodes []*Node
}

func newCluster(t *testing.T, n int, seed int64, link network.Profile) *cluster {
	t.Helper()
	return newClusterCfg(t, n, seed, link, Config{})
}

// newClusterCfg builds a simulated cluster with an explicit engine
// config — the lease tests need Config.Lease, everything else uses the
// defaults via newCluster — and detectors with opts beside η = 10 ms.
func newClusterCfg(t *testing.T, n int, seed int64, link network.Profile, cfg Config, opts ...core.Option) *cluster {
	t.Helper()
	w, err := node.NewWorld(node.WorldConfig{N: n, Seed: seed, DefaultLink: link})
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{world: w, dets: make([]*core.Detector, n), nodes: make([]*Node, n)}
	for i := 0; i < n; i++ {
		c.dets[i] = core.New(append([]core.Option{core.WithEta(10 * ms)}, opts...)...)
		c.nodes[i] = New(c.dets[i], cfg)
		w.SetAutomaton(node.ID(i), node.Compose(c.dets[i], c.nodes[i]))
	}
	return c
}

func (c *cluster) safety() consensus.SafetyReport {
	recs := make([]*consensus.Recorder, len(c.nodes))
	for i, s := range c.nodes {
		recs[i] = s.Recorder()
	}
	return consensus.CheckSafety(consensus.SafetyInput{Recorders: recs})
}

// appliedSet returns the individual commands applied at node i.
func (c *cluster) appliedSet(i int) map[consensus.Value]bool {
	out := make(map[consensus.Value]bool)
	c.nodes[i].Recorder().Each(func(d consensus.Decision) { out[d.Value] = true })
	return out
}

// decidedLog returns node i's applied log, instance by instance, as the
// commands each carried — from its Recorder, which keeps what the log
// forgets. An instance it holds no decision for is empty.
func (c *cluster) decidedLog(i int) [][]consensus.Value {
	var log [][]consensus.Value
	c.nodes[i].Recorder().Each(func(d consensus.Decision) {
		for len(log) <= d.Instance {
			log = append(log, nil)
		}
		log[d.Instance] = append(log[d.Instance], d.Value)
	})
	return log
}

// assertPrefixAgreement verifies that every alive replica holds a decision
// for each instance below its FirstGap — no holes: every lost instance was
// re-proposed or no-op filled — and that they agree up to the shortest.
func (c *cluster) assertPrefixAgreement(t *testing.T) {
	t.Helper()
	if diff := c.prefixDisagreement(); diff != "" {
		t.Fatal(diff)
	}
}

// prefixDisagreement describes the first hole below an alive replica's
// FirstGap, or the first instance below the shortest on which two alive
// replicas differ; "" when there is neither.
func (c *cluster) prefixDisagreement() string {
	minGap := -1
	logs := make([][][]consensus.Value, len(c.nodes))
	for i, s := range c.nodes {
		if !c.world.Alive(node.ID(i)) {
			continue
		}
		if minGap == -1 || s.FirstGap() < minGap {
			minGap = s.FirstGap()
		}
		logs[i] = c.decidedLog(i)
		for inst := 0; inst < s.FirstGap(); inst++ {
			if inst >= len(logs[i]) || len(logs[i][inst]) == 0 {
				return fmt.Sprintf("p%d missing decided instance %d below its gap", i, inst)
			}
		}
	}
	for inst := 0; inst < minGap; inst++ {
		var want []consensus.Value
		for i := range c.nodes {
			if !c.world.Alive(node.ID(i)) {
				continue
			}
			if v := logs[i][inst]; want == nil {
				want = v
			} else if !slices.Equal(v, want) {
				return fmt.Sprintf("instance %d: p%d has %q, others %q", inst, i, v, want)
			}
		}
	}
	return ""
}

// stranded describes a live replica whose first gap is below some replica's
// forgetting horizon — decisions it lacks that a peer may no longer hold to
// send it; "" when there is none.
func stranded(w *node.World, nodes []*Node) string {
	for i, r := range nodes {
		for j, q := range nodes {
			if w.Alive(node.ID(i)) && q.MinDone() > r.FirstGap() {
				return fmt.Sprintf("p%d's first gap %d is below p%d's forgetting horizon %d", i, r.FirstGap(), j, q.MinDone())
			}
		}
	}
	return ""
}

func TestCommandsFromLeaderGetDecidedEverywhere(t *testing.T) {
	c := newCluster(t, 5, 1, network.Timely(2*ms))
	c.world.Start()
	c.world.RunFor(200 * ms) // let Omega stabilize on p0
	for i := 0; i < 10; i++ {
		c.nodes[0].Submit(consensus.Value(fmt.Sprintf("cmd-%d", i)))
	}
	c.world.RunFor(2 * time.Second)
	for i := range c.nodes {
		applied := c.appliedSet(i)
		for j := 0; j < 10; j++ {
			if !applied[consensus.Value(fmt.Sprintf("cmd-%d", j))] {
				t.Fatalf("p%d never applied cmd-%d", i, j)
			}
		}
	}
	c.assertPrefixAgreement(t)
	if rep := c.safety(); !rep.Holds() {
		t.Fatalf("safety: %v", rep.Violations)
	}
}

func TestCommandsFromFollowersAreForwarded(t *testing.T) {
	c := newCluster(t, 4, 2, network.Timely(2*ms))
	c.world.Start()
	c.world.RunFor(200 * ms)
	for i, s := range c.nodes {
		s.Submit(consensus.Value(fmt.Sprintf("from-p%d", i)))
	}
	c.world.RunFor(3 * time.Second)
	c.assertPrefixAgreement(t)
	// Every submitted command must appear somewhere in every decided log.
	for i := range c.nodes {
		decided := c.appliedSet(i)
		for j := range c.nodes {
			if !decided[consensus.Value(fmt.Sprintf("from-p%d", j))] {
				t.Fatalf("p%d never decided the command from p%d", i, j)
			}
		}
	}
}

func TestLeaderCrashMidStream(t *testing.T) {
	c := newCluster(t, 5, 3, network.Timely(2*ms))
	c.world.Start()
	c.world.RunFor(200 * ms)
	for i := 0; i < 6; i++ {
		c.nodes[2].Submit(consensus.Value(fmt.Sprintf("pre-%d", i)))
	}
	c.world.RunFor(100 * ms)
	c.world.Crash(0) // the stable leader dies
	c.world.RunFor(100 * ms)
	for i := 0; i < 6; i++ {
		c.nodes[3].Submit(consensus.Value(fmt.Sprintf("post-%d", i)))
	}
	c.world.RunFor(5 * time.Second)
	c.assertPrefixAgreement(t)
	if rep := c.safety(); !rep.Holds() {
		t.Fatalf("safety: %v", rep.Violations)
	}
	// All post-crash commands must be decided at every survivor
	// (pre-crash ones may appear duplicated — at-least-once semantics —
	// but must not be lost if they were acked into a quorum; we assert
	// only the post-crash ones which have a stable leader).
	for idx := 1; idx < 5; idx++ {
		decided := c.appliedSet(idx)
		for i := 0; i < 6; i++ {
			if !decided[consensus.Value(fmt.Sprintf("post-%d", i))] {
				t.Fatalf("p%d missing post-crash command %d", idx, i)
			}
		}
	}
}

// TestFailoverWaitIsTheOutage: when the leader crashes under an open-loop
// client at a follower, the longest any command waits is the outage itself
// — crash until the successor's ballot stands — plus a drive tick and the
// round trips, not the outage plus a RetryTimeout. Commands forwarded to
// the successor while its phase 1 is in flight are queued there and
// proposed the moment it completes.
func TestFailoverWaitIsTheOutage(t *testing.T) {
	const ingress = 2
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		c := newClusterCfg(t, 5, seed, network.Timely(ms), Config{BatchMax: 16, Window: 8, DriveInterval: 5 * ms})
		submitted := map[consensus.Value]sim.Time{}
		var worst time.Duration
		c.nodes[ingress].OnApply(func(_, _ int, v consensus.Value) {
			if at, ok := submitted[v]; ok {
				delete(submitted, v) // a re-proposed duplicate counts once
				worst = max(worst, c.world.Kernel.Now().Sub(at))
			}
		})
		c.world.Start()
		c.world.RunFor(200 * ms)
		var crashAt, preparedAt sim.Time
		for tick := 0; tick < 600; tick++ {
			if tick == 200 {
				worst = 0 // only commands caught by the outage matter
				crashAt = c.world.Kernel.Now()
				c.world.Crash(0)
			}
			if crashAt != 0 && preparedAt == 0 {
				for i := 1; i < len(c.nodes) && preparedAt == 0; i++ {
					if c.nodes[i].IsLeader() {
						preparedAt = c.world.Kernel.Now()
					}
				}
			}
			v := consensus.Value(fmt.Sprintf("f%d-%04d", seed, tick))
			submitted[v] = c.world.Kernel.Now()
			c.nodes[ingress].Submit(v)
			c.world.RunFor(ms)
		}
		c.world.RunFor(time.Second)
		if preparedAt == 0 || len(submitted) != 0 {
			t.Fatalf("seed %d: successor prepared at %v, %d commands never applied at the ingress", seed, preparedAt, len(submitted))
		}
		outage := preparedAt.Sub(crashAt)
		if worst > outage+10*ms {
			t.Errorf("seed %d: a command waited %v across a %v outage, want at most the outage + 10ms", seed, worst, outage)
		}
		if rep := c.safety(); !rep.Holds() {
			t.Fatalf("seed %d safety: %v", seed, rep.Violations)
		}
		t.Logf("seed %d: outage %v, longest wait %v", seed, outage, worst)
	}
}

func TestSteadyStateCostIsLinearPerBatch(t *testing.T) {
	// E7-style accounting with batching: a burst of commands coalesces
	// into a handful of instances, and each instance — whatever its batch
	// size — costs ≈ 3(n−1) consensus messages (ACCEPT + ACCEPTED +
	// DECIDE) under a prepared ballot. The per-command cost therefore
	// drops with the batch size.
	const n = 5
	// Leases on: the trailing read series below asserts the zero-message
	// read path. A long lease keeps idle refresh traffic out of the
	// measurement windows.
	c := newClusterCfg(t, n, 4, network.Timely(2*ms), Config{Lease: 2 * time.Second})
	var readsAnswered, readsLocal int
	c.nodes[0].OnReadReply(func(m ReadReplyMsg) {
		readsAnswered += int(m.Count)
		if m.Local {
			readsLocal += int(m.Count)
		}
	})
	c.world.Start()
	c.world.RunFor(500 * ms) // leader stable, ballot prepared
	startGap := c.nodes[0].FirstGap()
	startApplied := c.nodes[0].Applied()
	const cmds = 20
	for i := 0; i < cmds; i++ {
		c.nodes[0].Submit(consensus.Value(fmt.Sprintf("c%d", i)))
	}
	c.world.RunFor(2 * time.Second)
	if got := c.nodes[0].Applied() - startApplied; got < cmds {
		t.Fatalf("leader applied %d new commands, want %d", got, cmds)
	}
	batches := c.nodes[0].FirstGap() - startGap
	if batches >= cmds {
		t.Fatalf("burst of %d commands used %d instances — batching never kicked in", cmds, batches)
	}
	consensusMsgs := float64(c.world.Stats.KindCount(KindAccept) +
		c.world.Stats.KindCount(KindAccepted) +
		c.world.Stats.KindCount(KindDecide))
	perBatch := consensusMsgs / float64(batches)
	if perBatch > 3.6*float64(n-1) {
		t.Fatalf("consensus messages per batch = %.1f, want ≈ 3(n-1) = %d", perBatch, 3*(n-1))
	}
	// Amortization: the per-command cost must land well below the
	// unbatched 3(n−1).
	if perCmd := consensusMsgs / cmds; perCmd > 1.5*float64(n-1) {
		t.Fatalf("consensus messages per command = %.1f with batching, want ≤ 1.5(n-1) = %.0f", perCmd, 1.5*float64(n-1))
	}

	// Read series: with the quorum lease held after the write burst, the
	// leader serves reads locally — the per-read consensus cost is ~0.
	if !c.nodes[0].LeaseHeld() {
		t.Fatal("leader does not hold the lease after the write burst")
	}
	kinds := []string{KindPrepare, KindPromise, KindAccept, KindAccepted,
		KindDecide, KindLeaseGrant, KindLeaseAck, KindReadReq, KindReadReply}
	before := make(map[string]uint64, len(kinds))
	for _, k := range kinds {
		before[k] = c.world.Stats.KindCount(k)
	}
	const readSeries = 200
	for i := 0; i < readSeries; i++ {
		c.nodes[0].Read(uint64(1+i), 1)
	}
	c.world.RunFor(200 * ms)
	if readsAnswered != readSeries || readsLocal != readSeries {
		t.Fatalf("answered %d reads (%d local), want %d local", readsAnswered, readsLocal, readSeries)
	}
	// Leader-origin reads under a lease touch the wire not at all; the
	// only tolerated traffic is a stray idle lease refresh.
	var total uint64
	for _, k := range kinds {
		delta := c.world.Stats.KindCount(k) - before[k]
		total += delta
		if k != KindLeaseGrant && k != KindLeaseAck && delta != 0 {
			t.Fatalf("read series sent %d %s messages, want 0", delta, k)
		}
	}
	if perRead := float64(total) / readSeries; perRead >= 0.1 {
		t.Fatalf("consensus messages per read = %.3f while lease held, want ~0", perRead)
	}
	if got := c.nodes[0].LocalReads(); got < readSeries {
		t.Fatalf("leader's local-read counter = %d, want >= %d", got, readSeries)
	}
}

// deliveryTap is an automaton composed next to a replica to see the
// messages delivered to it; the fabric's counters know kinds, not contents.
type deliveryTap func(to, from node.ID, m node.Message)

type tapAt struct {
	id  node.ID
	tap deliveryTap
}

func (tapAt) Start(node.Env)                         {}
func (tapAt) Tick(string)                            {}
func (t tapAt) Deliver(from node.ID, m node.Message) { t.tap(t.id, from, m) }

// tap composes fn next to every replica; call before the world starts.
func (c *cluster) tap(fn deliveryTap) {
	for i := range c.nodes {
		id := node.ID(i)
		c.world.SetAutomaton(id, node.Compose(c.dets[i], c.nodes[i], tapAt{id, fn}))
	}
}

// steadyLoad is the load of the message budget tests on a fault-free
// n-process world of 1 ms timely links, led by p0: a warm-up command at
// ingress, then 20 commands per millisecond there for a second — about one
// and a half instances per link delay, so quorums complete out of order
// and commit indexes overtake ACCEPTs all the time — then a drain. Every
// replica must have decided and applied everything, in the batched steady
// state. It returns the cluster, how many messages of a kind the load
// sent, and the instances it took. tap, when non-nil, sees every delivery
// (cluster.tap); loaded is false for those of the warm-up.
func steadyLoad(t *testing.T, n int, ingress node.ID, tap func(c *cluster, loaded bool, to, from node.ID, m node.Message)) (*cluster, func(kind string) int, int) {
	t.Helper()
	return steadyLoadDown(t, n, ingress, node.None, tap, nil)
}

// steadyLoadDown is steadyLoad with follower down, unless node.None,
// crashed as the load begins — every live replica must still decide and
// apply everything — and sends, when non-nil, called with every message
// p0's rsm node sends.
func steadyLoadDown(t *testing.T, n int, ingress, down node.ID, tap func(c *cluster, loaded bool, to, from node.ID, m node.Message), sends func(c *cluster, to node.ID, m node.Message)) (*cluster, func(kind string) int, int) {
	t.Helper()
	c := newClusterCfg(t, n, 20040726, network.Timely(ms), Config{BatchMax: 16, Window: 8, DriveInterval: 5 * ms})
	loaded := false
	if tap != nil {
		c.tap(func(to, from node.ID, m node.Message) { tap(c, loaded, to, from, m) })
	}
	if sends != nil {
		at0 := []node.Automaton{c.dets[0], &spy{Automaton: c.nodes[0], send: func(to node.ID, m node.Message) { sends(c, to, m) }, event: func(string) {}}}
		if tap != nil {
			at0 = append(at0, tapAt{0, func(to, from node.ID, m node.Message) { tap(c, loaded, to, from, m) }})
		}
		c.world.SetAutomaton(0, node.Compose(at0...))
	}
	c.world.Start()
	// Warm-up: Omega settles on p0, phase 1 completes, one command through.
	c.world.RunFor(200 * ms)
	c.nodes[ingress].Submit("warm-up")
	c.world.RunFor(100 * ms)
	if !c.nodes[0].IsLeader() || c.nodes[ingress].Applied() == 0 {
		t.Fatalf("warm-up: p0 leader=%v, ingress applied %d", c.nodes[0].IsLeader(), c.nodes[ingress].Applied())
	}
	before := map[string]uint64{}
	for _, k := range c.world.Stats.Kinds() {
		before[k] = c.world.Stats.KindCount(k)
	}
	startGap := c.nodes[0].FirstGap()
	loaded = true
	if down != node.None {
		c.world.Crash(down)
	}
	for i := 0; i < steadyCmds; i++ {
		c.nodes[ingress].Submit(consensus.Value(fmt.Sprintf("w%05d", i)))
		c.world.RunFor(steadyStep)
	}
	c.world.RunFor(500 * ms)

	sent := func(kind string) int { return int(c.world.Stats.KindCount(kind) - before[kind]) }
	instances := c.nodes[0].FirstGap() - startGap
	for i, s := range c.nodes {
		if c.world.Alive(node.ID(i)) && (s.FirstGap() != startGap+instances || s.Applied() != c.nodes[0].Applied()) {
			t.Fatalf("p%d decided %d instances / applied %d, leader %d / %d", i, s.FirstGap(), s.Applied(), startGap+instances, c.nodes[0].Applied())
		}
	}
	if instances < steadyCmds/16 || instances > steadyCmds/8 {
		t.Fatalf("%d commands took %d instances: not the batched steady state this test is about", steadyCmds, instances)
	}
	if got := sent(KindLearn); got != 0 {
		t.Errorf("followers sent %d LEARNs on a fault-free run, want 0", got)
	}
	if got := sent(KindRequest); got != steadyCmds {
		t.Errorf("REQ = %d, want each of the %d commands forwarded once", got, steadyCmds)
	}
	for _, k := range []string{KindPrepare, KindPromise, KindNack} {
		if got := sent(k); got != 0 {
			t.Errorf("%s = %d in steady state, want 0", k, got)
		}
	}
	if rep := c.safety(); !rep.Holds() {
		t.Fatalf("safety: %v", rep.Violations)
	}
	t.Logf("%d commands, %d instances: per command REQ %.3f ACCEPT %.3f ACCEPTED %.3f DECIDE %.3f LEARN %.3f",
		steadyCmds, instances, float64(sent(KindRequest))/steadyCmds, float64(sent(KindAccept))/steadyCmds,
		float64(sent(KindAccepted))/steadyCmds, float64(sent(KindDecide))/steadyCmds, float64(sent(KindLearn))/steadyCmds)
	return c, sent, instances
}

// steadyCmds is how many commands steadyLoad submits, one a steadyStep.
const steadyCmds, steadyStep = 20000, 50 * time.Microsecond

// TestSteadyStateMessageBudget is the paper's "only the leader initiates
// communication", for the replicated log, as an exact message budget: a
// fault-free n=5 timely world under sustained open-loop load at a
// follower. Per instance, n−1 ACCEPTs and n−1 ACCEPTEDs; the decided
// prefix is announced by index with no value bytes, at most once per
// advance to the replica the commands came from and — while ACCEPTs flow —
// to nobody else; and no follower ever asks for anything. The only
// follower-initiated traffic is the client's own commands, forwarded
// once each.
func TestSteadyStateMessageBudget(t *testing.T) {
	const n, ingress = 5, 2
	type announcement struct {
		to   node.ID
		upTo int
	}
	announcedTo := map[announcement]bool{} // the warm-up's, then the load's
	var lastAccept sim.Time                // when one last reached anybody
	bystanders := 0                        // DECIDEs to a replica that forwarded nothing, ACCEPTs flowing
	warm := true
	_, sent, instances := steadyLoad(t, n, ingress, func(c *cluster, loaded bool, to, from node.ID, m node.Message) {
		if loaded && warm {
			warm = false
			clear(announcedTo)
		}
		if _, ok := m.(*AcceptMsg); ok {
			lastAccept = c.world.Kernel.Now()
		}
		d, ok := m.(*DecideMsg)
		if !ok {
			return
		}
		// A catch-up leaves a drive interval (5 ms) after the last ACCEPT
		// left; seen from the receiving end, a link delay (≤ 1 ms) less.
		if to != ingress && c.world.Kernel.Now().Sub(lastAccept) < 5*ms-ms {
			bystanders++
		}
		if d.B == consensus.NoBallot || d.V != consensus.NoValue {
			t.Errorf("p%d→p%d sent a by-value DECIDE of instance %d (%d value bytes) on a fault-free run", from, to, d.Inst, len(d.V))
		}
		if a := (announcement{to, d.Inst}); announcedTo[a] {
			t.Errorf("p%d heard commit index %d twice", to, d.Inst)
		} else {
			announcedTo[a] = true
		}
	})
	if a, ad := sent(KindAccept), sent(KindAccepted); a != (n-1)*instances || ad != (n-1)*instances {
		t.Errorf("ACCEPT = %d, ACCEPTED = %d for %d instances, want (n-1) per instance = %d each", a, ad, instances, (n-1)*instances)
	}
	// Re-budgeted once, with the addressed announcement (pipeline.go): the
	// parent allowed (n−1) DECIDEs per instance and sent 0.187 per command
	// here. Now an instance costs at most one, to the one origin, and the
	// n−2 others are told by DECIDE only in the catch-up after the last
	// command. "Heard twice" above stays an error: the per-follower
	// watermark keeps the catch-up from repeating what an origin was told.
	if got := sent(KindDecide); got != len(announcedTo) || got > instances+(n-2) {
		t.Errorf("DECIDE-kind = %d (%d distinct announcements) for %d instances, want at most one per instance and %d catch-ups", got, len(announcedTo), instances, n-2)
	}
	if bystanders != 0 {
		t.Errorf("%d DECIDEs reached a replica that forwarded nothing while ACCEPTs were flowing", bystanders)
	}
	if got := sent(KindDecide); got >= instances*3/4 {
		t.Errorf("DECIDE-kind = %d for %d instances: under load most commit indexes should ride ACCEPTs", got, instances)
	}
}

// TestSteadyStateMessageBudgetOfThree is the budget at a quorum of two,
// where one follower's vote with the leader's decides an instance: the
// leader names one follower on each fresh ACCEPT to reply (pipeline.go,
// named), and the other votes in silence. Per instance n−1 ACCEPTs and
// one ACCEPTED, and one more from the other follower each time an ACCEPT
// asks everyone again — at most once a retryTimeout; no follower asks for
// anything, and no more DECIDEs than when every follower replied.
func TestSteadyStateMessageBudgetOfThree(t *testing.T) {
	const n, ingress = 3, 2
	var first, last sim.Time // the load's first and last ACCEPT
	c, sent, instances := steadyLoad(t, n, ingress, func(c *cluster, loaded bool, _, _ node.ID, m node.Message) {
		if _, ok := m.(*AcceptMsg); ok && loaded {
			if last = c.world.Kernel.Now(); first == 0 {
				first = last
			}
		}
	})
	if got := sent(KindAccept); got != (n-1)*instances {
		t.Errorf("ACCEPT = %d for %d instances, want (n-1) per instance = %d", got, instances, (n-1)*instances)
	}
	asks := int(last.Sub(first)/retryTimeout) + 1 // ACCEPTs that may have asked everyone
	if got := sent(KindAccepted); got < instances || got > instances+(n-1)*asks {
		t.Errorf("ACCEPTED = %d for %d instances over %v, want one per instance and at most %d more", got, instances, last.Sub(first), (n-1)*asks)
	}
	if c.nodes[0].pipe.named == 0 {
		t.Error("the leader names no replier at the end of the load")
	}
	// The silent follower's Done rides the ACCEPTEDs of ACCEPTs that ask
	// everyone: the log still forgets as it goes.
	if low, gap := c.nodes[0].MinDone(), c.nodes[0].FirstGap(); low < gap-instances/4 {
		t.Errorf("the leader forgets below %d of %d decided instances, want within %d of them", low, gap, instances/4)
	}
	// With every follower replying this load sent two: the catch-up after
	// the last command, to each follower.
	if got := sent(KindDecide); got > n-1 {
		t.Errorf("DECIDE-kind = %d for %d instances, want at most %d", got, instances, n-1)
	}
}

// TestNamedReplierLost: of three, under an open-loop client at the leader
// p0, the follower p0 names its replier (pipeline.go, pipeline.named) is
// lost mid-stream — crashed, or cut off from p0 both ways and healed later
// — just after an ACCEPT asked everyone, so that the next such ACCEPT is a
// retryTimeout away. The leader does not wait for it: a flight it named goes
// unanswered for at most quiet, the next drive re-asks everyone, and the
// other follower answers — so the leader's applied prefix stands still
// for at most quiet, a drive interval and a round trip, and the survivor
// is named from then on. Every command is applied once at the survivors;
// after the heal, everyone reaches the same first gap. The detectors
// rebuff (core.WithRebuff): a cut loses the accusation the lost follower
// sent p0, and without it the two disagree on Omega for good.
func TestNamedReplierLost(t *testing.T) {
	const n = 3
	cfg := Config{BatchMax: 16, Window: 8, DriveInterval: 5 * ms}
	for _, cut := range []bool{false, true} {
		for seed := int64(1); seed <= 5; seed++ {
			name := fmt.Sprintf("cut=%v seed %d", cut, seed)
			c := newClusterCfg(t, n, seed, network.Timely(ms), cfg, core.WithRebuff())
			var applied []sim.Time // when the leader applied each command of the load
			c.nodes[0].OnApply(func(_, _ int, v consensus.Value) {
				if strings.HasPrefix(string(v), "r") {
					applied = append(applied, c.world.Kernel.Now())
				}
			})
			c.world.Start()
			c.world.RunFor(300 * ms)
			var lost, survivor node.ID
			var lostAt sim.Time
			const cmds = 600
			at := -1 // the tick the replier is lost at: just after an ACCEPT asked everyone
			for tick := 0; tick < cmds; tick++ {
				// The follower p0 does not name was last asked with everyone.
				askedAll := min(c.nodes[0].peers[1].asked, c.nodes[0].peers[2].asked)
				if at < 0 && tick >= 150 && c.world.Kernel.Now().Sub(askedAll) < 10*ms {
					at = tick
					lost = node.ID(bits.TrailingZeros64(c.nodes[0].pipe.named))
					survivor, lostAt = n-lost, c.world.Kernel.Now() // {1, 2} \ {lost}
					if !c.nodes[0].IsLeader() || lost != 1 && lost != 2 {
						t.Fatalf("%s: p0 leader=%v names %#b", name, c.nodes[0].IsLeader(), c.nodes[0].pipe.named)
					}
					if cut {
						c.world.Fabric.Cut(0, int(lost))
						c.world.Fabric.Cut(int(lost), 0)
					} else {
						c.world.Crash(lost)
					}
				}
				if got := c.nodes[0].pipe.named; at >= 0 && tick == at+30 && !cut && got != 1<<survivor {
					t.Errorf("%s: 30 ms after p%d crashed the leader names %#b, want p%d", name, lost, got, survivor)
				}
				if cut && at >= 0 && tick == at+200 {
					c.world.Fabric.Heal(0, int(lost))
					c.world.Fabric.Heal(int(lost), 0)
				}
				c.nodes[0].Submit(consensus.Value(fmt.Sprintf("r%04d", tick)))
				c.world.RunFor(ms)
			}
			c.world.RunFor(2 * time.Second)
			if rep := c.safety(); !rep.Holds() {
				t.Fatalf("%s: safety: %v", name, rep.Violations)
			}
			c.assertPrefixAgreement(t)
			for i := range c.nodes {
				if c.world.Alive(node.ID(i)) && c.nodes[i].FirstGap() != c.nodes[0].FirstGap() {
					t.Errorf("%s: p%d's first gap is %d, p0's %d", name, i, c.nodes[i].FirstGap(), c.nodes[0].FirstGap())
				}
			}
			// A cut may move the leadership, and with it decide a command twice.
			for p := range c.nodes {
				counts := map[consensus.Value]int{}
				c.nodes[p].Recorder().Each(func(d consensus.Decision) { counts[d.Value]++ })
				for tick := 0; tick < cmds && c.world.Alive(node.ID(p)); tick++ {
					if v := consensus.Value(fmt.Sprintf("r%04d", tick)); counts[v] == 0 || !cut && counts[v] != 1 {
						t.Fatalf("%s: p%d applied %s %d times, want once", name, p, v, counts[v])
					}
				}
			}
			if cut {
				continue
			}
			stall := time.Duration(0)
			for i := 1; i < len(applied); i++ {
				if applied[i].After(lostAt) {
					stall = max(stall, applied[i].Sub(applied[i-1]))
				}
			}
			if bound := c.nodes[0].quiet() + cfg.DriveInterval + 2*ms; stall > bound {
				t.Errorf("%s: the leader applied nothing for %v after p%d crashed, want at most %v", name, stall, lost, bound)
			}
			t.Logf("%s: p%d lost, longest stall %v", name, lost, stall)
		}
	}
}

func TestNoPhase1PerCommandAfterStableLeader(t *testing.T) {
	c := newCluster(t, 4, 5, network.Timely(2*ms))
	c.world.Start()
	c.world.RunFor(500 * ms)
	prepares := c.world.Stats.KindCount(KindPrepare)
	for i := 0; i < 15; i++ {
		c.nodes[0].Submit(consensus.Value(fmt.Sprintf("c%d", i)))
		c.world.RunFor(50 * ms)
	}
	if got := c.world.Stats.KindCount(KindPrepare); got != prepares {
		t.Fatalf("PREPAREs grew from %d to %d during steady state (phase 1 must run once)", prepares, got)
	}
}

// TestSafetyUnderChurnManySeeds: twenty-five worlds on links that delay
// each message by 1–80 ms and reorder freely, with up to two of five
// replicas crashed at seed-chosen instants while commands are in flight.
// Every world must be safe and agree on its prefix, and, a majority
// surviving, every survivor must apply every command submitted at a
// survivor.
func TestSafetyUnderChurnManySeeds(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		c := newCluster(t, 5, seed, network.Reliable(ms, 80*ms))
		c.world.Start()
		cmds := make([]consensus.Value, 8)
		for i := range cmds {
			cmds[i] = consensus.Value(fmt.Sprintf("s%d-c%d", seed, i))
			c.nodes[int(seed+int64(i))%5].Submit(cmds[i])
		}
		c.world.CrashAt(node.ID(seed%5), sim.At(time.Duration(seed%7)*30*ms))
		c.world.CrashAt(node.ID((seed+2)%5), sim.At(time.Duration(seed%29)*5*ms))
		c.world.RunFor(20 * time.Second)
		if rep := c.safety(); !rep.Holds() {
			t.Fatalf("seed %d: %v", seed, rep.Violations)
		}
		c.assertPrefixAgreement(t)
		for p := range c.nodes {
			if !c.world.Alive(node.ID(p)) {
				continue
			}
			applied := c.appliedSet(p)
			for i, v := range cmds {
				if at := node.ID((seed + int64(i)) % 5); c.world.Alive(at) && !applied[v] {
					t.Fatalf("seed %d: p%d never applied %q, submitted at survivor p%d", seed, p, v, at)
				}
			}
		}
	}
}

// TestMajorityCrashLosesLivenessNotSafety: with three of four replicas
// crashed at t = 0, before any PROMISE can reach it, the survivor has no
// quorum, so it decides nothing, and above all not alone.
func TestMajorityCrashLosesLivenessNotSafety(t *testing.T) {
	c := newCluster(t, 4, 4, network.Timely(2*ms))
	c.world.Start()
	for p := node.ID(1); p < 4; p++ {
		c.world.CrashAt(p, 0)
	}
	c.nodes[0].Submit("alone")
	c.world.RunFor(2 * time.Second)
	if gap := c.nodes[0].FirstGap(); gap != 0 {
		t.Fatalf("p0 decided %d instances without a correct majority", gap)
	}
	if rep := c.safety(); !rep.Holds() {
		t.Fatalf("safety: %v", rep.Violations)
	}
}

// flappingOracle is a Leadership that lies: until settleAt its output
// rotates through every process, one step per 20 ms of simulated time,
// shifted by skew so that replicas disagree and two often lead at once;
// from settleAt on it names p2. It reads the kernel clock rather than
// counting calls, because rsm consults Leader() on every event.
type flappingOracle struct {
	k        *sim.Kernel
	n        int
	skew     time.Duration
	settleAt sim.Time
}

func (f flappingOracle) Leader() node.ID {
	now := f.k.Now()
	if !now.Before(f.settleAt) {
		return 2
	}
	return node.ID(int((now.Duration()+f.skew)/(20*ms)) % f.n)
}

// TestSafetyAndLivenessUnderFlappingOracle: twenty worlds whose Omega flaps
// for 1.2 s before it settles on p2, with commands submitted at every
// replica from 1.0 s to 1.4 s, across the settle instant. Dueling proposers
// must never break safety or the agreed prefix, and once the output has
// settled every command is applied everywhere.
func TestSafetyAndLivenessUnderFlappingOracle(t *testing.T) {
	const seeds, n = 20, 5
	failures := sweep.Map(sweep.New(0), seeds, func(i int) string {
		w, err := node.NewWorld(node.WorldConfig{N: n, Seed: int64(i), DefaultLink: network.Timely(2 * ms)})
		if err != nil {
			return err.Error()
		}
		c := &cluster{world: w, nodes: make([]*Node, n)}
		for p := range c.nodes {
			oracle := flappingOracle{k: w.Kernel, n: n, skew: time.Duration(p) * 7 * ms, settleAt: sim.At(1200 * ms)}
			c.nodes[p] = New(oracle, Config{})
			w.SetAutomaton(node.ID(p), c.nodes[p])
		}
		w.Start()
		var cmds []consensus.Value
		for k, at := 0, sim.At(time.Second); at.Before(sim.At(1400 * ms)); k, at = k+1, at.Add(20*ms) {
			r, v := c.nodes[k%n], consensus.Value(fmt.Sprintf("s%d-c%d", i, k))
			cmds = append(cmds, v)
			w.Kernel.ScheduleAt(at, func() { r.Submit(v) })
		}
		w.RunFor(4 * time.Second)
		if rep := c.safety(); !rep.Holds() {
			return fmt.Sprintf("safety: %v", rep.Violations)
		}
		if diff := c.prefixDisagreement(); diff != "" {
			return diff
		}
		for p := range c.nodes {
			applied := c.appliedSet(p)
			for _, v := range cmds {
				if !applied[v] {
					return fmt.Sprintf("p%d never applied %q", p, v)
				}
			}
		}
		return ""
	})
	for i, f := range failures {
		if f != "" {
			t.Errorf("seed %d: %s", i, f)
		}
	}
}

// TestCommitIndexPropertySweep runs 200 seeded schedules of the situation
// the commit index has to survive: non-FIFO timely links (commit indexes
// and ACCEPTs overtake each other), batching and pipelining on, commands
// arriving at every replica, and the leader crashed mid-stream at a
// seed-dependent instant so its successor's index meets votes cast at the
// old ballot. Every run must be safe, agree on the common prefix, bring
// every survivor to the same log, and lose no command submitted after
// the crash.
func TestCommitIndexPropertySweep(t *testing.T) {
	const seeds, n = 200, 5
	failures := sweep.Map(sweep.New(0), seeds, func(i int) string {
		seed := int64(1000 + i)
		delta := time.Duration(1+i%3) * ms
		w, err := node.NewWorld(node.WorldConfig{N: n, Seed: seed, DefaultLink: network.Timely(delta)})
		if err != nil {
			return err.Error()
		}
		c := &cluster{world: w, dets: make([]*core.Detector, n), nodes: make([]*Node, n)}
		for p := 0; p < n; p++ {
			c.dets[p] = core.New(core.WithEta(10 * ms))
			c.nodes[p] = New(c.dets[p], Config{BatchMax: 16, Window: 1 + i%8, DriveInterval: 5 * ms})
			w.SetAutomaton(node.ID(p), node.Compose(c.dets[p], c.nodes[p]))
		}
		w.Start()
		w.RunFor(200 * ms)
		crashTick := 100 + (i*37)%200
		var after []consensus.Value
		for tick, seq := 0, 0; tick < 400; tick++ {
			if tick == crashTick {
				w.Crash(0)
			}
			for k := 0; k <= (tick+i)%5; k++ {
				at := 1 + (tick+k)%(n-1) // a survivor
				if tick < crashTick && (tick+k)%3 == 0 {
					at = 0 // the leader's own fast path, while it lives
				}
				v := consensus.Value(fmt.Sprintf("s%d-%05d@p%d", seed, seq, at))
				seq++
				c.nodes[at].Submit(v)
				if tick >= crashTick {
					after = append(after, v)
				}
			}
			w.RunFor(ms)
		}
		w.RunFor(3 * time.Second)
		if rep := c.safety(); !rep.Holds() {
			return fmt.Sprintf("safety: %v", rep.Violations)
		}
		if diff := c.prefixDisagreement(); diff != "" {
			return diff
		}
		for p := 2; p < n; p++ {
			if c.nodes[p].FirstGap() != c.nodes[1].FirstGap() || c.nodes[p].HighestDecided() != c.nodes[1].HighestDecided() {
				return fmt.Sprintf("p%d settled at gap %d / highest %d, p1 at %d / %d", p,
					c.nodes[p].FirstGap(), c.nodes[p].HighestDecided(), c.nodes[1].FirstGap(), c.nodes[1].HighestDecided())
			}
		}
		applied := c.appliedSet(1)
		for _, v := range after {
			if !applied[v] {
				return fmt.Sprintf("command %q, submitted after the crash, was never applied", v)
			}
		}
		return ""
	})
	for i, f := range failures {
		if f != "" {
			t.Errorf("seed %d: %s", 1000+i, f)
		}
	}
}

// TestGapFillViaLearn runs five replicas: at three a follower decides on its
// own vote and the leader's horizon moves past what the probe asks for.
func TestGapFillViaLearn(t *testing.T) {
	c := newCluster(t, 5, 6, network.Timely(2*ms))
	c.world.Start()
	c.world.RunFor(200 * ms)
	for i := 0; i < 5; i++ {
		c.nodes[0].Submit(consensus.Value(fmt.Sprintf("c%d", i)))
	}
	c.world.RunFor(time.Second)
	// Simulate a replica that missed decisions: wipe p2's view by
	// delivering a fresh node... instead, check the learn path directly.
	var env2 = c.world.Env(2)
	_ = env2
	lagger := c.nodes[2]
	gap := c.nodes[0].FirstGap() // instances, fewer than commands when batched
	if gap < 2 || lagger.FirstGap() != gap {
		t.Fatalf("p2 gap = %d before test, want the leader's %d", lagger.FirstGap(), gap)
	}
	if got := lagger.Applied(); got < 5 {
		t.Fatalf("p2 applied %d commands, want 5", got)
	}
	// Direct unit probe of onLearn: ask p0 for all decided instances.
	before := c.world.Stats.KindCount(KindDecide)
	c.nodes[0].Deliver(2, LearnMsg{FirstGap: 0})
	if got := c.world.Stats.KindCount(KindDecide); got != before+uint64(gap) {
		t.Fatalf("learn reply sent %d decides, want %d", got-before, gap)
	}
}

func TestNoopFillerOnLeaderChange(t *testing.T) {
	// Force a gap: leader accepts an instance with only itself, crashes;
	// next leader must fill with no-op or re-propose. We approximate by
	// crashing the leader right after submissions and checking the final
	// log has no holes below every survivor's gap.
	c := newCluster(t, 5, 7, network.Timely(2*ms))
	c.world.Start()
	c.world.RunFor(300 * ms)
	for i := 0; i < 4; i++ {
		c.nodes[0].Submit(consensus.Value(fmt.Sprintf("c%d", i)))
	}
	c.world.RunFor(21 * ms) // mid-flight
	c.world.Crash(0)
	c.nodes[1].Submit("after")
	c.world.RunFor(5 * time.Second)
	c.assertPrefixAgreement(t) // no holes below any survivor's gap, either
	if rep := c.safety(); !rep.Holds() {
		t.Fatalf("safety: %v", rep.Violations)
	}
}

func TestIsLeaderReflectsPreparedState(t *testing.T) {
	c := newCluster(t, 3, 8, network.Timely(2*ms))
	c.world.Start()
	c.world.RunFor(time.Second)
	if !c.nodes[0].IsLeader() {
		t.Fatal("p0 not leader after stabilization")
	}
	if c.nodes[1].IsLeader() || c.nodes[2].IsLeader() {
		t.Fatal("follower claims leadership")
	}
}

func TestHighestDecidedAndGetters(t *testing.T) {
	c := newCluster(t, 3, 9, network.Timely(2*ms))
	c.world.Start()
	c.world.RunFor(200 * ms)
	c.nodes[0].Submit("only")
	c.world.RunFor(time.Second)
	if c.nodes[1].HighestDecided() != 0 {
		t.Fatalf("HighestDecided = %d", c.nodes[1].HighestDecided())
	}
	d, ok := c.nodes[1].Recorder().Get(0)
	if !ok || d.Value != "only" {
		t.Fatalf("Recorder().Get(0) = %q,%v", d.Value, ok)
	}
	if _, ok := c.nodes[1].Recorder().Get(7); ok {
		t.Fatal("Recorder().Get(7) found a value")
	}
}

// TestRetainedBytesPerCommand is the budget on what a cluster keeps per
// decided command for as long as it runs (ROADMAP item 2): five replicas
// on the simulator with the benchmark's engine settings, 64-byte writes
// submitted at a follower at sim_steady's rate, and the live heap they
// leave behind, all five replicas' share and the message counters'
// together.
// The simulator has no codec, so the replicas share one copy of each
// envelope's bytes; a live cluster holds one per replica on top of this.
func TestRetainedBytesPerCommand(t *testing.T) {
	// Measured 75.0 bytes per command once the message stats kept counters
	// only; 79.4 with a log of every send's instant, once a Recorder row
	// was its value alone; 83.5 once the leader's Recorder kept no Elapsed; 92.5 with 24-byte Recorder rows for a log recorded in order
	// and the leader's envelopes cut from its arena; 101.0
	// with 40-byte rows and no index for such a log; 106.8 with 48-byte rows
	// and a sort index; 123.3 with forgetting an option that was off, which
	// the budget refuses; before that, 122.9 with the send log as varint
	// chunks, 156.0 with a 16-byte record per send in a doubling ring, 309.8
	// with a packed 32-byte Recorder row per command on each of the five
	// replicas, and 442.1.
	const commands, budget = 20000, 78
	c := newClusterCfg(t, 5, 1, network.Timely(ms), Config{BatchMax: 16, Window: 8, DriveInterval: 5 * ms})
	w, nodes := c.world, c.nodes
	w.Start()
	w.RunFor(100 * ms)
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	i := 0
	var submit func()
	submit = func() {
		nodes[2].Submit(consensus.Value(fmt.Sprintf("%064d", i)))
		if i++; i < commands {
			w.Kernel.Schedule(time.Second/20000, submit)
		}
	}
	submit()
	w.RunFor(2 * time.Second)
	per := float64(heap()-before) / commands
	for i, r := range nodes {
		if got := r.Recorder().Count(); got != commands {
			t.Fatalf("p%d decided %d of %d commands", i, got, commands)
		}
	}
	t.Logf("%.1f bytes retained per command", per)
	if per > budget {
		t.Fatalf("%.1f bytes retained per command, budget %d", per, budget)
	}
	runtime.KeepAlive(w)
}

// BenchmarkWorldBoot is what one seeded world costs before it does any
// work: an n = 5 core+rsm node.World built as the sim benchmarks build it
// (η = 50 ms, 1 ms timely links), from NewWorld until a command submitted
// at follower p2 is applied there. Each iteration boots another seed.
func BenchmarkWorldBoot(b *testing.B) {
	const n = 5
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := node.NewWorld(node.WorldConfig{N: n, Seed: int64(i + 1), DefaultLink: network.Timely(ms)})
		if err != nil {
			b.Fatal(err)
		}
		logs := make([]*Node, n)
		for id := range logs {
			det := core.New(core.WithEta(50*ms), core.WithRebuff())
			logs[id] = New(det, Config{BatchMax: 16, Window: 8, DriveInterval: 5 * ms})
			w.SetAutomaton(node.ID(id), node.Compose(det, logs[id]))
		}
		applied := false
		logs[2].OnApply(func(int, int, consensus.Value) { applied = true })
		w.Start()
		w.RunFor(20 * ms) // phase 1 done: the command is not held for a re-forward
		logs[2].Submit("boot")
		w.RunUntil(w.Kernel.Now().Add(time.Second), func() bool { return applied })
		if !applied {
			b.Fatalf("seed %d: the command was not applied within 1s", i+1)
		}
	}
}

// TestForwardedMarkerCommandAppliesOnceWhole: a command that itself starts
// with the batch marker, submitted at follower p2, is forwarded as it was
// submitted and is one command at the leader, since a REQ carries exactly
// one command, so it applies once, whole, and p2 holds nothing pending.
func TestForwardedMarkerCommandAppliesOnceWhole(t *testing.T) {
	const cmd = consensus.Value("\x00b\x02\x01x\x01y") // to a decoder, an envelope of "x" and "y"
	c := newCluster(t, 3, 5, network.Timely(2*ms))
	c.world.Start()
	c.world.RunFor(300 * ms)
	if !c.nodes[0].IsLeader() {
		t.Fatal("p0 not leader after stabilization")
	}
	c.nodes[2].Submit(cmd)
	c.world.RunFor(2 * time.Second)
	for i, r := range c.nodes {
		applied := map[consensus.Value]int{}
		r.Recorder().Each(func(d consensus.Decision) { applied[d.Value]++ })
		if applied[cmd] != 1 || applied["x"] != 0 || applied["y"] != 0 {
			t.Fatalf("p%d applied the command %d times, x %d and y %d; want it once, whole", i, applied[cmd], applied["x"], applied["y"])
		}
	}
	if b := &c.nodes[2].bat; b.tail != b.head {
		t.Fatalf("p2 still has %d commands pending", b.tail-b.head)
	}
}
