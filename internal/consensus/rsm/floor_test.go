package rsm

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sweep"
)

// laggingLeaderWorld is the rule of TestLaggingPreparerNeverFillsADecidedSlot
// as a property: n replicas on links that reorder everything (0.2–3 ms, not
// FIFO) under a scripted oracle. p0 is cut off while p1 leads a client at p2
// through floorGap instances, one command each; then, in one instant and
// with the client still sending, the cut heals and the oracle names p0 — a
// leader behind every member of any quorum it can gather, preparing while
// the old leader's ACCEPTs and commit indexes are still in flight. It
// returns what the world violates and a one-line summary.
const floorGap = 50

func laggingLeaderWorld(n int, seed int64) (violations []string, summary string) {
	w, err := node.NewWorld(node.WorldConfig{N: n, Seed: seed, DefaultLink: network.Reliable(200*time.Microsecond, 3*ms)})
	if err != nil {
		return []string{err.Error()}, ""
	}
	oracle := &fakeOmega{leader: 1}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = New(oracle, Config{BatchMax: 1, Window: 4, DriveInterval: 5 * ms})
		w.SetAutomaton(node.ID(i), nodes[i])
	}
	w.Start()
	w.RunFor(20 * ms) // p1's ballot stands
	w.Fabric.Isolate(0)
	const commands = 3 * floorGap
	submit := func(k int) { nodes[2].Submit(consensus.Value(fmt.Sprintf("cmd-%d", k))) }
	for k := 0; k < commands; k++ {
		w.Kernel.Schedule(time.Duration(k)*ms, func() { submit(k) })
	}
	w.RunUntil(w.Kernel.Now().Add(time.Second), func() bool { return nodes[1].FirstGap() >= floorGap })
	floor := nodes[1].FirstGap()
	behind := floor - nodes[0].FirstGap()
	w.Fabric.Rejoin(0)
	oracle.leader = 0
	healed := w.Kernel.Now()
	w.RunUntil(healed.Add(time.Second), func() bool { return nodes[0].FirstGap() >= floor })
	took := w.Kernel.Now().Sub(healed)
	done := func() bool {
		for _, r := range nodes {
			if r.Applied() < commands || r.Applied() != nodes[0].Applied() {
				return false
			}
		}
		return nodes[0].IsLeader()
	}
	w.RunUntil(healed.Add(2*time.Second), done)

	recs := make([]*consensus.Recorder, n)
	for i, r := range nodes {
		recs[i] = r.Recorder()
	}
	if rep := consensus.CheckSafety(consensus.SafetyInput{Recorders: recs}); !rep.Agreement {
		violations = append(violations, rep.Violations...)
	}
	if s := stranded(w, nodes); s != "" {
		violations = append(violations, s)
	}
	if behind < floorGap {
		violations = append(violations, fmt.Sprintf("p0 was only %d instances behind at the heal: the world does not exercise the rule", behind))
	}
	// The laggard has what was decided behind its back a drive tick (its
	// Omega is read then), a PREPARE and a LEARN round trip after the heal —
	// no retry timer — and in the end every command is applied everywhere.
	if took > 5*ms+4*3*ms+ms {
		violations = append(violations, fmt.Sprintf("p0 reached instance %d only %v after the heal", floor, took))
	}
	if !done() {
		applied := make([]int, n)
		for i, r := range nodes {
			applied[i] = r.Applied()
		}
		violations = append(violations, fmt.Sprintf("applied %v of %d commands, p0 leads: %v", applied, commands, nodes[0].IsLeader()))
	}
	// One LEARN fetches learnBatch decisions, and the leader passes on what
	// it learns, so no follower asks for the same. Beyond what the gap needs
	// (63 worlds of the 80 send exactly that): a follower repairing what the
	// handover itself lost, and a re-ask that crossed its answer on these
	// links — three at the most.
	learns := int(w.Stats.KindCount(KindLearn))
	if most := (behind+learnBatch-1)/learnBatch + 3; learns > most {
		violations = append(violations, fmt.Sprintf("%d LEARNs for a gap of %d, want at most %d", learns, behind, most))
	}
	return violations, fmt.Sprintf("behind %3d  caught up in %7.3f ms  %d LEARNs", behind, float64(took)/1e6, learns)
}

// TestLaggingLeaderProperty sweeps it: seeds 1–40 at n = 3 and n = 5.
func TestLaggingLeaderProperty(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	type result struct {
		violations []string
		summary    string
	}
	for _, n := range []int{3, 5} {
		results := sweep.Map(sweep.New(0), seeds, func(i int) result {
			v, s := laggingLeaderWorld(n, int64(1+i))
			return result{v, s}
		})
		for i, r := range results {
			t.Logf("n %d seed %2d: %s", n, 1+i, r.summary)
			if len(r.violations) > 0 {
				t.Errorf("n %d seed %d:\n  %s", n, 1+i, strings.Join(r.violations, "\n  "))
			}
		}
	}
}
