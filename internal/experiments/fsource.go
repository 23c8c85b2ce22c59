package experiments

import (
	"fmt"
	"time"

	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// E11FSourceBoundary regenerates Table 7: an empirical map of the
// ◊-f-source concept from the paper's line of work. The source process has
// eventually timely links to only its first k peers (in id order); every
// other link in the system is fair-lossy. We sweep k from 0 (no timely
// links at all) to n−1 (a full ◊-source) and report how often the core
// algorithm stabilizes.
//
// Expected shape: reliability degrades as k shrinks — processes outside
// the source's timely fan keep accusing whoever leads, so leadership
// churns. A full ◊-source (k = n−1) matches E8's source column; small k
// approaches the all-fair-lossy regime where nothing is guaranteed.
func E11FSourceBoundary(o Opts) Table {
	o.fill()
	const n = 5
	horizon := 60 * time.Second
	if o.Quick {
		horizon = 25 * time.Second
	}
	t := Table{
		ID:    "E11",
		Title: "◊-f-source boundary: timely links from the source vs stabilization (Table 7)",
		Note: fmt.Sprintf("n=%d, source=p%d with timely links to its first k peers; all other links fair-lossy (drop 0.3); horizon %v, %d seeds",
			n, n-1, horizon, o.Seeds),
		Columns: []string{"k (timely out-links)", "Ω holds", "mean leader changes", "mean msgs/η (tail)"},
	}
	ks := make([]int, n)
	for k := range ks {
		ks[k] = k
	}
	type run struct {
		holds   bool
		changes int
		rate    float64
	}
	res := sweepCells(o, ks, func(k, seed int) run {
		h, ch, rate := fSourceRun(n, k, int64(seed), horizon)
		return run{holds: h, changes: ch, rate: rate}
	})
	for ki, k := range ks {
		holds := 0
		var changes, rates []float64
		for _, r := range res[ki] {
			if r.holds {
				holds++
			}
			changes = append(changes, float64(r.changes))
			rates = append(rates, r.rate)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%d/%d", holds, o.Seeds),
			fmt.Sprintf("%.0f", mean(changes)),
			fmt.Sprintf("%.1f", mean(rates)),
		})
	}
	return t
}

// fSourceRun executes one E11 cell: source p(n-1) gets timely links to its
// first k peers, the rest of the world is fair-lossy.
func fSourceRun(n, k int, seed int64, horizon time.Duration) (holds bool, changes int, msgsPerEta float64) {
	src := n - 1
	s := build(scenario.Config{
		N: n, Source: node.ID(src), Seed: seed, Regime: scenario.RegimeSourceFairLossy,
		Eta: Eta, MaxDelay: 40 * time.Millisecond, DropProb: 0.3,
	})
	// The regime gives the source eventually timely links to every peer;
	// E11 keeps timely ones to the first k and makes the rest fair-lossy
	// like every other link.
	for peer := 0; peer < src; peer++ {
		p := s.World.Fabric.Profile(peer, src)
		if peer < k {
			p = network.Timely(2 * time.Millisecond)
		}
		if err := s.World.Fabric.SetProfile(src, peer, p); err != nil {
			panic(err)
		}
	}
	s.Start()
	s.World.RunUntil(sim.At(horizon), nil)

	tailStart := sim.At(horizon * 3 / 4)
	rep := s.OmegaReport()
	msgsPerEta = float64(s.World.Stats.Snapshot().MessagesInWindow(tailStart, sim.At(horizon))) /
		(float64(horizon/4) / float64(Eta))
	return rep.Holds && rep.StabilizedAt <= tailStart, rep.Changes, msgsPerEta
}
