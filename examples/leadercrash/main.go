// Leadercrash: the economics of re-election under serial leader failures.
//
// Eight processes run the communication-efficient Omega; every two seconds
// the current leader is killed. The program prints, for each reign, who
// led, how long re-election took after the crash, and how many messages
// the system spent — showing that the cost of the algorithm is
// concentrated in the (finite) re-election bursts while steady state stays
// at n−1 messages per η.
//
//	go run ./examples/leadercrash
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n = 8
	sys, err := scenario.Build(scenario.Config{
		N:         n,
		Seed:      7,
		Algorithm: scenario.AlgoCore,
		Regime:    scenario.RegimeAllTimely,
	})
	if err != nil {
		return err
	}

	fmt.Println("reign  leader  crash at    re-elected in  msgs in reign  msgs/η steady")
	alive := n
	for reign := 0; alive > 1; reign++ {
		startMsgs := sys.World.Stats.TotalSent()
		startAt := sys.World.Kernel.Now()
		now := startAt.Add(2 * time.Second)
		// Steady-state rate over the last 500ms of the reign.
		steady := sys.RunWindow(now.Add(-500*time.Millisecond), now)
		perEta := float64(steady) / 50.0

		rep := sys.OmegaReport()
		if !rep.Holds {
			return fmt.Errorf("omega violated in reign %d: %s", reign, rep.Reason)
		}
		leader := rep.Leader

		// Re-election latency: last leader change minus the previous
		// crash (reign 0 has no crash; report the boot convergence).
		elected := rep.StabilizedAt - startAt
		if reign == 0 {
			elected = rep.StabilizedAt
		}

		fmt.Printf("%-6d p%-6v %-11v %-14v %-14d %.1f (n-1=%d)\n",
			reign, leader, sys.World.Kernel.Now(),
			time.Duration(elected),
			sys.World.Stats.TotalSent()-startMsgs,
			perEta, n-1)

		sys.World.Crash(leader)
		alive--
	}

	// With one process left, it trusts itself and talks to no one alive.
	sys.Run(time.Second)
	last := survivors(sys)
	fmt.Printf("\nlast survivor: p%v, trusting p%v\n", last[0], sys.Leaders()[last[0]])
	return nil
}

func survivors(sys *scenario.System) []node.ID {
	var out []node.ID
	for i := 0; i < sys.Config.N; i++ {
		if sys.World.Alive(node.ID(i)) {
			out = append(out, node.ID(i))
		}
	}
	return out
}

var _ = sim.TimeZero
