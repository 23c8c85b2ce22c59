package experiments

import (
	"fmt"
	"time"

	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/relay"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// E10RelayedPaths regenerates Table 6: the paper's relaxed assumption.
// With message relaying, the core algorithm needs only an eventually
// timely *path* from some correct process to every other, instead of
// direct links. The topology: p3→p2 and p2→{p0,p1} are timely (plus the
// reverse path back to p3); every other link drops 90% of its messages.
//
// Expected shape: the relayed algorithm stabilizes and eventually only the
// leader *originates* messages (the flooding itself keeps all links busy —
// the paper's "communication-efficient with respect to new messages");
// the bare algorithm cannot stabilize on this topology.
func E10RelayedPaths(o Opts) Table {
	o.fill()
	horizon := 40 * time.Second
	if o.Quick {
		horizon = 20 * time.Second
	}
	t := Table{
		ID:    "E10",
		Title: "relaying: timely paths instead of timely links (Table 6)",
		Note: fmt.Sprintf("n=4; timely chain p3→p2→{p0,p1} (and back); all other links drop 90%%; horizon %v; 'originators' counts processes creating new messages in the final quarter",
			horizon),
		Columns: []string{"variant", "Ω holds", "agreed leader", "originators (tail)", "msgs/η (tail)", "leader changes"},
	}
	type run struct {
		holds   string
		leader  node.ID
		origins int
		rate    float64
		changes int
	}
	variants := []bool{true, false}
	res := sweepEach(o, variants, func(relayOn bool) run {
		holds, leader, origins, rate, changes := relayRun(relayOn, horizon, 9)
		return run{holds: holds, leader: leader, origins: origins, rate: rate, changes: changes}
	})
	for ci, relayOn := range variants {
		r := res[ci]
		name := "core bare"
		if relayOn {
			name = "core + relay"
		}
		leaderStr := "—"
		if r.leader != node.None {
			leaderStr = fmt.Sprintf("p%d", r.leader)
		}
		t.Rows = append(t.Rows, []string{
			name, r.holds, leaderStr,
			fmt.Sprintf("%d", r.origins),
			fmt.Sprintf("%.1f", r.rate),
			fmt.Sprintf("%d", r.changes),
		})
	}
	return t
}

// relayRun executes one E10 cell and extracts its metrics.
func relayRun(relayOn bool, horizon time.Duration, seed int64) (holds string, leader node.ID, originators int, msgsPerEta float64, changes int) {
	s := build(scenario.Config{
		N: 4, Source: 3, Seed: seed, Regime: scenario.RegimeTimelyPath,
		Eta: Eta, Delta: time.Millisecond, MaxDelay: 30 * time.Millisecond,
	})
	// The regime's chain p3↔p2↔{p0,p1}, at a 2 ms bound where the lossy
	// links keep the 1 ms Delta.
	for _, link := range [][2]int{{3, 2}, {2, 0}, {2, 1}, {0, 2}, {1, 2}, {2, 3}} {
		if err := s.World.Fabric.SetProfile(link[0], link[1], network.Timely(2*time.Millisecond)); err != nil {
			panic(err)
		}
	}
	// The relayed variant wraps each detector here rather than building
	// with AlgoCoreRelay, which keeps the wrapper to itself: E10 reads
	// what each one originated.
	wraps := make([]*relay.Wrapper, 4)
	if relayOn {
		for i, om := range s.Omegas {
			wraps[i] = relay.Wrap(om)
			s.World.SetAutomaton(node.ID(i), wraps[i])
		}
	}
	s.Start()

	tailStart := sim.At(horizon * 3 / 4)
	before := s.RunTo(tailStart)
	var originatedAtTail [4]uint64
	if relayOn {
		for i, wr := range wraps {
			originatedAtTail[i] = wr.Originated()
		}
	}
	msgs := s.RunTo(sim.At(horizon)) - before

	rep := s.OmegaReport()
	holds, leader = "no", node.None
	if rep.Holds && rep.StabilizedAt <= tailStart {
		holds, leader = "yes", rep.Leader
	}

	if relayOn {
		for i, wr := range wraps {
			if wr.Originated() > originatedAtTail[i] {
				originators++
			}
		}
	} else {
		originators = len(s.World.Stats.SendersSince(tailStart))
	}
	msgsPerEta = float64(msgs) / (float64(horizon/4) / float64(Eta))
	return holds, leader, originators, msgsPerEta, rep.Changes
}
