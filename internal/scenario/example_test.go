package scenario_test

import (
	"fmt"
	"time"

	"repro/internal/faultline"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Example shows the complete verification loop: build a scenario under the
// paper's minimal assumption, run it, and check both Omega and
// communication efficiency.
func Example() {
	sys, err := scenario.Build(scenario.Config{
		N:         5,
		Seed:      42,
		Algorithm: scenario.AlgoCore,
		Regime:    scenario.RegimeAllTimely,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// Run 2 s, counting the messages of the last half second.
	tail := sim.At(1500 * time.Millisecond)
	msgs := sys.RunWindow(tail, sim.At(2*time.Second))

	rep := sys.OmegaReport()
	fmt.Println("omega holds:", rep.Holds)
	fmt.Println("leader:", rep.Leader)

	ce := sys.CommEffReport(tail, msgs)
	fmt.Println("communication-efficient:", ce.Efficient)
	fmt.Println("steady-state links:", ce.LinksUsed)
	// Output:
	// omega holds: true
	// leader: 0
	// communication-efficient: true
	// steady-state links: 4
}

// Example_leaderCrash demonstrates failure handling: the elected leader is
// crashed mid-run and a new correct leader takes over.
func Example_leaderCrash() {
	sys, err := scenario.Build(scenario.Config{
		N:        4,
		Seed:     7,
		Schedule: faultline.Schedule{{At: 500 * time.Millisecond, Op: faultline.OpCrash, From: 0}},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sys.Run(2 * time.Second)
	rep := sys.OmegaReport()
	fmt.Println("holds:", rep.Holds)
	fmt.Println("new leader:", rep.Leader)
	// Output:
	// holds: true
	// new leader: 1
}
