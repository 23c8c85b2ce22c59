package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// E8AssumptionMatrix regenerates Table 4: which algorithm implements Omega
// (and communication-efficiently) under which link regime. This is the
// boundary map the paper draws:
//
//   - the core algorithm needs reliable links + a ◊-source, and is the
//     only communication-efficient one;
//   - the gossiped-counter algorithm tolerates fair-lossy links with a
//     ◊-source but is never communication-efficient;
//   - the naive all-to-all detector needs timeliness everywhere and flaps
//     under persistent loss;
//   - nobody survives totally lossy links.
func E8AssumptionMatrix(o Opts) Table {
	o.fill()
	horizon := 60 * time.Second
	if o.Quick {
		horizon = 25 * time.Second
	}
	regimes := []scenario.Regime{
		scenario.RegimeAllTimely,
		scenario.RegimeAllET,
		scenario.RegimeSourceReliable,
		scenario.RegimeSourceFairLossy,
		scenario.RegimeLossy,
	}
	t := Table{
		ID:    "E8",
		Title: "assumption boundaries: Ω / communication efficiency by link regime (Table 4)",
		Note: fmt.Sprintf("n=4, ◊-source=p3, drop=0.3 (lossy regime drops everything), horizon %v; cells are 'holds k/%d seeds / comm-eff k/%d'",
			horizon, o.Seeds, o.Seeds),
		Columns: append([]string{"algorithm"}, regimeNames(regimes)...),
	}
	algos := []scenario.Algorithm{scenario.AlgoCore, scenario.AlgoAllToAll, scenario.AlgoSource}
	type cell struct {
		algo   scenario.Algorithm
		regime scenario.Regime
	}
	var cells []cell
	for _, algo := range algos {
		for _, regime := range regimes {
			cells = append(cells, cell{algo: algo, regime: regime})
		}
	}
	type run struct {
		holds, eff bool
	}
	res := sweepCells(o, cells, func(c cell, seed int) run {
		cfg := scenario.Config{
			N: 4, Source: 3, Seed: int64(seed), Algorithm: c.algo, Regime: c.regime,
			Eta: Eta, MaxDelay: 40 * time.Millisecond, DropProb: 0.3,
		}
		if c.regime == scenario.RegimeLossy {
			cfg.DropProb = 1.0
		}
		s := build(cfg)
		s.Run(horizon)
		rep := s.OmegaReport()
		// "Holds" requires agreement AND stability margin: no change in
		// the final third of the run.
		if !rep.Holds || rep.StabilizedAt > sim.At(horizon*2/3) {
			return run{}
		}
		ce := s.CommEffReport(sim.At(horizon * 2 / 3))
		return run{holds: true, eff: ce.Efficient}
	})
	for ci := 0; ci < len(cells); ci += len(regimes) {
		row := []string{string(cells[ci].algo)}
		for ri := range regimes {
			holds, eff := 0, 0
			for _, r := range res[ci+ri] {
				if r.holds {
					holds++
				}
				if r.eff {
					eff++
				}
			}
			row = append(row, fmt.Sprintf("%d/%d · %d/%d", holds, o.Seeds, eff, o.Seeds))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func regimeNames(rs []scenario.Regime) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = string(r)
	}
	return out
}

// E9Ablations regenerates Table 5: each mechanism of the core algorithm is
// disabled in the scenario engineered to need it.
//
//   - Timeout growth vs a timely-but-slow leader link (delays near the
//     initial timeout): without growth, suspicions never die out.
//   - The accusation epoch guard vs long asynchronous delays (stale
//     accusations arrive after the accused moved on): without the guard,
//     counters inflate and leadership churns more.
//   - Accusation messages vs an asymmetric broken link (p0 cannot reach
//     p1): without them, p1 and p0 both believe they lead forever.
func E9Ablations(o Opts) Table {
	o.fill()
	t := Table{
		ID:      "E9",
		Title:   "core-algorithm ablations (Table 5)",
		Note:    "each row: the stressor scenario, with the protecting mechanism on vs off; 'max counter' is the largest accusation count any process holds at the end",
		Columns: []string{"scenario", "variant", "Ω holds", "stable senders", "leader changes", "max counter"},
	}

	run := func(algo scenario.Algorithm, mutate func(*scenario.System), horizon time.Duration, seed int64) []string {
		cfg := scenario.Config{N: 5, Seed: seed, Algorithm: algo, Regime: scenario.RegimeAllTimely, Eta: Eta}
		s := build(cfg)
		if mutate != nil {
			mutate(s)
		}
		s.Run(horizon)
		rep := s.OmegaReport()
		ce := s.CommEffReport(sim.At(horizon * 3 / 4))
		holds := "no"
		if rep.Holds && rep.StabilizedAt <= sim.At(horizon*3/4) {
			holds = "yes"
		}
		return []string{
			string(algo), holds,
			fmt.Sprintf("%d", len(ce.Senders)),
			fmt.Sprintf("%d", rep.Changes),
			fmt.Sprintf("%d", maxCounter(s)),
		}
	}

	// (a) slow-but-timely links: delay up to 5η against a 3η base timeout.
	slowLinks := func(s *scenario.System) {
		if err := s.World.Fabric.SetAll(network.Timely(5 * Eta)); err != nil {
			panic(err)
		}
	}
	// (b) stale accusations: fully asynchronous reliable links, no timely
	// source. Several followers accuse the same reign concurrently; the
	// epoch guard keeps the accused's counter at one increment per reign,
	// the ablation counts every duplicate.
	asyncLinks := func(s *scenario.System) {
		if err := s.World.Fabric.SetAll(network.Reliable(Eta, 8*Eta)); err != nil {
			panic(err)
		}
	}
	// (c) asymmetric dead link p0→p1.
	cutLink := func(s *scenario.System) {
		if err := s.World.Fabric.SetProfile(0, 1, network.Down()); err != nil {
			panic(err)
		}
	}

	type cell struct {
		label   string
		algo    scenario.Algorithm
		mutate  func(*scenario.System)
		horizon time.Duration
		seed    int64
	}
	var cells []cell
	for _, algo := range []scenario.Algorithm{scenario.AlgoCore, scenario.AlgoCoreNoGrowth} {
		cells = append(cells, cell{"slow timely links (delay ≤ 5η)", algo, slowLinks, 20 * time.Second, 1})
	}
	for _, algo := range []scenario.Algorithm{scenario.AlgoCore, scenario.AlgoCoreNoGuard} {
		cells = append(cells, cell{"async delays ≤ 8η (duplicate accusations)", algo, asyncLinks, 30 * time.Second, 2})
	}
	for _, algo := range []scenario.Algorithm{scenario.AlgoCore, scenario.AlgoCoreNoAccuse} {
		cells = append(cells, cell{"dead link p0→p1 (split-brain bait)", algo, cutLink, 40 * time.Second, 3})
	}
	rows := sweepEach(o, cells, func(c cell) []string {
		return run(c.algo, c.mutate, c.horizon, c.seed)
	})
	for ci, c := range cells {
		t.Rows = append(t.Rows, append([]string{c.label}, rows[ci]...))
	}
	return t
}

// maxCounter returns the largest accusation count held by any core
// detector in the system (0 for other algorithms).
func maxCounter(s *scenario.System) uint64 {
	var max uint64
	for _, om := range s.Omegas {
		d, ok := om.(*core.Detector)
		if !ok {
			continue
		}
		for q := 0; q < s.Config.N; q++ {
			if c := d.Counter(node.ID(q)); c > max {
				max = c
			}
		}
	}
	return max
}
