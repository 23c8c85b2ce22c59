package core_test

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/node"
)

// Example wires three communication-efficient Omega detectors into a
// simulated world and reads the agreed leader.
func Example() {
	world, err := node.NewWorld(node.WorldConfig{
		N:           3,
		Seed:        1,
		DefaultLink: network.Timely(2 * time.Millisecond),
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	detectors := make([]*core.Detector, 3)
	for i := range detectors {
		detectors[i] = core.New(core.WithEta(10 * time.Millisecond))
		world.SetAutomaton(node.ID(i), detectors[i])
	}
	world.Start()
	world.RunFor(time.Second)

	for i, d := range detectors {
		fmt.Printf("p%d trusts p%v\n", i, d.Leader())
	}
	// After stabilization only the leader sends: n-1 = 2 messages per η.
	fmt.Println("steady-state senders:", len(world.Stats.Snapshot().SendersSince(world.Kernel.Now().Add(-100*time.Millisecond))))
	// Output:
	// p0 trusts p0
	// p1 trusts p0
	// p2 trusts p0
	// steady-state senders: 1
}
