// Quickstart: elect a leader communication-efficiently among five
// simulated processes and watch the message economy.
//
// This is the smallest end-to-end use of the library: build a scenario
// (system size, link regime, algorithm), run it on the deterministic
// simulator, and read off the Omega verdict and the message accounting.
//
//	go run ./examples/quickstart
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
	// Five processes, all links eventually timely, network chaotic for
	// the first 200ms (GST), then delays bounded by 2ms.
	sys, err := scenario.Build(scenario.Config{
		N:         5,
		Seed:      42,
		Algorithm: scenario.AlgoCore, // the paper's communication-efficient Omega
		Regime:    scenario.RegimeAllET,
		GST:       sim.At(200 * time.Millisecond),
	})
	if err != nil {
		return err
	}

	// Watch the leader outputs converge second by second. RunTo returns
	// what was sent before each second, so msgs is what the last one sent.
	fmt.Println("time     leaders (one column per process)")
	var before, msgs uint64
	for step := 1; step <= 5; step++ {
		sent := sys.RunTo(sim.At(time.Duration(step) * time.Second))
		msgs, before = sent-before, sent
		fmt.Printf("%-8v", sys.World.Kernel.Now())
		for _, l := range sys.Leaders() {
			fmt.Printf(" p%v", l)
		}
		fmt.Println()
	}

	rep := sys.OmegaReport()
	if !rep.Holds {
		return fmt.Errorf("omega violated: %s", rep.Reason)
	}
	fmt.Printf("\nOmega holds: every process trusts p%v (stable since %v)\n", rep.Leader, rep.StabilizedAt)

	// Communication efficiency: in the last second of the run, only the
	// leader sent anything, on exactly n-1 links.
	tail := sys.World.Kernel.Now().Add(-time.Second)
	ce := sys.CommEffReport(tail, msgs)
	fmt.Printf("communication-efficient: %v\n", ce.Efficient)
	fmt.Printf("  senders in final second: %v\n", ce.Senders)
	fmt.Printf("  links in use:            %d (n-1 = %d)\n", ce.LinksUsed, sys.Config.N-1)
	fmt.Printf("  messages per η:          %.1f\n", ce.MessagesPerPeriod)

	// The crash test: kill the leader and watch a new one take over.
	fmt.Printf("\ncrashing p%v...\n", rep.Leader)
	sys.World.Crash(rep.Leader)
	sys.Run(2 * time.Second)
	rep2 := sys.OmegaReport()
	if !rep2.Holds {
		return fmt.Errorf("omega violated after crash: %s", rep2.Reason)
	}
	fmt.Printf("re-elected: every survivor now trusts p%v (took %v)\n",
		rep2.Leader, rep2.StabilizedAt-sys.World.Kernel.Now().Add(-2*time.Second))
	_ = node.None
	return nil
}
