package experiments

import (
	"fmt"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// E13PartitionHeal regenerates Table 9: behaviour across a lossy network
// partition — the leader is fully isolated for 1.2 s (its messages and the
// accusations aimed at it are *dropped*, which is harsher than the paper's
// reliable-link model) and then rejoined.
//
// Expected shape: the base algorithm strands the stale leader — its
// self-count never catches up with the accusations that were swallowed, so
// it keeps broadcasting forever next to the new leader (two senders, Ω
// violated). The WithRebuff extension repairs this: the first post-heal
// heartbeat is answered with the true count, the stale leader demotes
// itself, and the system returns to one sender. The baselines, which
// gossip full state continuously, also recover — at their usual n(n−1)
// price.
func E13PartitionHeal(o Opts) Table {
	o.fill()
	horizon := 20 * time.Second
	if o.Quick {
		horizon = 12 * time.Second
	}
	t := Table{
		ID:    "E13",
		Title: "lossy partition and heal (Table 9)",
		Note: fmt.Sprintf("n=5, leader p0 isolated (messages dropped) during [0.3s, 1.5s), horizon %v; a lossy partition violates the paper's reliable-link assumption — rebuff is the repair",
			horizon),
		Columns: []string{"algorithm", "Ω holds", "stable senders", "leader changes"},
	}
	algos := []scenario.Algorithm{
		scenario.AlgoCore,
		scenario.AlgoCoreRebuff,
		scenario.AlgoAllToAll,
		scenario.AlgoSource,
	}
	type run struct {
		holds   string
		senders int
		changes int
	}
	res := sweepEach(o, algos, func(algo scenario.Algorithm) run {
		sys := build(scenario.Config{
			N: 5, Seed: 1, Algorithm: algo, Regime: scenario.RegimeAllTimely, Eta: Eta,
		})
		sys.World.Kernel.ScheduleAt(sim.At(300*time.Millisecond), func() { sys.World.Fabric.Isolate(0) })
		sys.World.Kernel.ScheduleAt(sim.At(1500*time.Millisecond), func() { sys.World.Fabric.Rejoin(0) })
		tail := sim.At(horizon * 3 / 4)
		msgs := sys.RunWindow(tail, sim.At(horizon))
		rep := sys.OmegaReport()
		ce := sys.CommEffReport(tail, msgs)
		holds := "no"
		if rep.Holds && rep.StabilizedAt <= tail {
			holds = "yes"
		}
		return run{holds: holds, senders: len(ce.Senders), changes: rep.Changes}
	})
	for ci, algo := range algos {
		t.Rows = append(t.Rows, []string{
			string(algo), res[ci].holds,
			fmt.Sprintf("%d", res[ci].senders),
			fmt.Sprintf("%d", res[ci].changes),
		})
	}
	return t
}
