package rsm

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
)

// The leader's fan-out (pipeline.go: fanOut, reach) in node.World: a
// follower that has left an ask unanswered for a retryTimeout is silent,
// and is sent one message a retryTimeout — the probe — until it answers.

// probeGaps fails t unless the sends in at, in order, are at least a
// retryTimeout apart, and — over [from, to], where ACCEPTs flow — at most
// a retryTimeout and slack apart, the first as late as that after from
// and the last as early as that before to.
func probeGaps(t *testing.T, name string, at []sim.Time, from, to sim.Time, slack time.Duration) {
	t.Helper()
	prev := from
	for i, s := range at {
		if i > 0 && s.Sub(at[i-1]) < retryTimeout {
			t.Errorf("%s: sends at %v and %v, %v apart: more than one a retryTimeout", name, at[i-1], s, s.Sub(at[i-1]))
		}
		if s <= to {
			if s.Sub(prev) > retryTimeout+slack {
				t.Errorf("%s: no send between %v and %v: a probe is missing", name, prev, s)
			}
			prev = s
		}
	}
	if to.Sub(prev) > retryTimeout+slack {
		t.Errorf("%s: the last send at or before %v is at %v: a probe is missing", name, to, prev)
	}
}

// TestCrashedFollowerCostsAProbe: under steadyLoad, a follower crashes as
// the load begins. It falls silent a retryTimeout after the first ask it
// leaves unanswered — at n = 5 every ACCEPT asks it, so a link delay after
// the crash; at n = 3 an unnamed follower is asked once a retryTimeout, so
// up to a retryTimeout later. From then on the leader sends it one rsm
// message a retryTimeout — no more, and while ACCEPTs flow no fewer — and
// every other follower one ACCEPT per instance, n−2 an instance in all;
// every live replica applies every command (steadyLoadDown).
func TestCrashedFollowerCostsAProbe(t *testing.T) {
	for _, tc := range []struct {
		n             int
		ingress, down node.ID
	}{{5, 2, 1}, {3, 2, 1}, {3, 1, 2}} {
		name := fmt.Sprintf("n=%d p%d crashed", tc.n, tc.down)
		type accept struct {
			at   sim.Time
			inst int
		}
		var sent []sim.Time  // when the leader sent down anything, after the crash
		var accepts []accept // the ACCEPTs to the live followers, after the crash
		c, _, _ := steadyLoadDown(t, tc.n, tc.ingress, tc.down, nil, func(c *cluster, to node.ID, m node.Message) {
			if _, crashed := c.world.CrashedAt(tc.down); !crashed {
				return
			}
			if a, ok := m.(*AcceptMsg); to != tc.down && ok {
				accepts = append(accepts, accept{c.world.Kernel.Now(), a.Inst})
			} else if to == tc.down {
				sent = append(sent, c.world.Kernel.Now())
			}
		})
		crashAt, _ := c.world.CrashedAt(tc.down)
		asked := c.nodes[0].pipe.peers[tc.down].waiting // the first ask it left unanswered
		bound := 2 * ms                                 // a link delay for its last answer, and the next ACCEPT
		if tc.n == 3 {
			bound += retryTimeout // an unnamed follower is asked once a retryTimeout
		}
		if late := asked.Sub(crashAt); late < 0 || late > bound {
			t.Fatalf("%s: the leader first waits on it %v after the crash", name, late)
		}
		from, loadEnd := asked.Add(retryTimeout), crashAt.Add(steadyCmds*steadyStep)
		probes := sent[sort.Search(len(sent), func(i int) bool { return sent[i] >= from }):]
		probeGaps(t, name, probes, from, loadEnd, 5*ms)
		insts, k := map[int]bool{}, 0
		for _, a := range accepts {
			if a.at >= from {
				insts[a.inst] = true
				k++
			}
		}
		if k != (tc.n-2)*len(insts) {
			t.Errorf("%s: %d ACCEPTs to the %d live followers for %d instances, want one each per instance", name, k, tc.n-2, len(insts))
		}
		t.Logf("%s: silent %v after the crash; then %d sends to it over %v, %d ACCEPTs to the others for %d instances",
			name, from.Sub(crashAt), len(probes), loadEnd.Sub(from), k, len(insts))
	}
}

// TestCutFollowerRejoinsTheStream: of five, under an open-loop client at
// the leader p0, follower p3 is cut off from p0 both ways for 300 ms. It
// falls silent: from a retryTimeout after the cut (and two link delays, for
// its last answer and the next ACCEPT) p0 sends it one rsm message a
// retryTimeout, the probe. Within a retryTimeout and a few link delays
// of the heal it is streamed again — every fresh ACCEPT goes to it — and
// its first gap reaches the leader's. Leadership is static: under Omega a
// follower cut off from the leader both ways may win the next election,
// and this test is about the stream, not about who leads it.
func TestCutFollowerRejoinsTheStream(t *testing.T) {
	const n, lost = 5, 3
	for seed := int64(1); seed <= 5; seed++ {
		name := fmt.Sprintf("seed %d", seed)
		w, err := node.NewWorld(node.WorldConfig{N: n, Seed: seed, DefaultLink: network.Timely(ms)})
		if err != nil {
			t.Fatal(err)
		}
		c := &cluster{world: w, nodes: make([]*Node, n)}
		for i := range c.nodes {
			c.nodes[i] = New(consensus.StaticLeader(0), Config{BatchMax: 16, Window: 8, DriveInterval: 5 * ms})
			w.SetAutomaton(node.ID(i), c.nodes[i])
		}
		var cutAt, healAt sim.Time
		rejoin := func() sim.Time { return healAt.Add(retryTimeout + 5*ms) }
		silent := func() sim.Time { return cutAt.Add(retryTimeout + 2*ms) }
		var during []sim.Time // sends to lost from silent to the heal
		// Every ACCEPT p0 sends from rejoin on, and whether it went to lost.
		accepts := map[*AcceptMsg]bool{}
		w.SetAutomaton(0, &spy{Automaton: c.nodes[0], event: func(string) {}, send: func(to node.ID, m node.Message) {
			now := c.world.Kernel.Now()
			if cutAt != 0 && healAt == 0 && now >= silent() && to == lost {
				during = append(during, now)
			}
			if a, ok := m.(*AcceptMsg); ok && healAt != 0 && now >= rejoin() {
				accepts[a] = accepts[a] || to == lost
			}
		}})
		c.world.Start()
		c.world.RunFor(300 * ms)
		gapAtHeal, gapAtRejoin := 0, -1 // p0's first gap at the heal, lost's at rejoin
		for tick := 0; tick < 1000; tick++ {
			switch tick {
			case 200:
				cutAt = c.world.Kernel.Now()
				c.world.Fabric.Cut(0, lost)
				c.world.Fabric.Cut(lost, 0)
			case 500:
				healAt, gapAtHeal = c.world.Kernel.Now(), c.nodes[0].FirstGap()
				c.world.Fabric.Heal(0, lost)
				c.world.Fabric.Heal(lost, 0)
			}
			if healAt != 0 && gapAtRejoin < 0 && c.world.Kernel.Now() >= rejoin() {
				gapAtRejoin = c.nodes[lost].FirstGap()
			}
			c.nodes[0].Submit(consensus.Value(fmt.Sprintf("c%04d", tick)))
			c.world.RunFor(ms)
		}
		c.world.RunFor(time.Second)
		if rep := c.safety(); !rep.Holds() {
			t.Fatalf("%s: safety: %v", name, rep.Violations)
		}
		c.assertPrefixAgreement(t)
		probeGaps(t, name, during, silent(), healAt, 5*ms)
		missed := 0
		for _, reached := range accepts {
			if !reached {
				missed++
			}
		}
		if missed != 0 {
			t.Errorf("%s: %d of %d ACCEPTs from %v after the heal on did not go to p%d", name, missed, len(accepts), rejoin().Sub(healAt), lost)
		}
		if gapAtRejoin < gapAtHeal || c.nodes[lost].FirstGap() != c.nodes[0].FirstGap() {
			t.Errorf("%s: p%d's first gap is %d %v after the heal (p0's was %d at the heal), %d at the end (p0's %d)",
				name, lost, gapAtRejoin, rejoin().Sub(healAt), gapAtHeal, c.nodes[lost].FirstGap(), c.nodes[0].FirstGap())
		}
	}
}
