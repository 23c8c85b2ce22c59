package rsm_test

import (
	"fmt"
	"time"

	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/node"
)

// Example replicates three commands across a five-node cluster: each
// process runs an Omega detector composed with a replicated-log engine;
// commands submitted at any replica are forwarded to the leader and come
// back decided in the same order everywhere.
func Example() {
	const n = 5
	world, err := node.NewWorld(node.WorldConfig{
		N:           n,
		Seed:        1,
		DefaultLink: network.Timely(2 * time.Millisecond),
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	logs := make([]*rsm.Node, n)
	for i := 0; i < n; i++ {
		det := core.New(core.WithEta(10 * time.Millisecond))
		logs[i] = rsm.New(det, rsm.Config{})
		world.SetAutomaton(node.ID(i), node.Compose(det, logs[i]))
	}
	world.Start()
	world.RunFor(500 * time.Millisecond) // leader elected, ballot prepared

	logs[3].Submit("alpha") // follower: forwarded to the leader
	logs[0].Submit("beta")  // leader: proposed directly
	logs[2].Submit("gamma")
	world.RunFor(2 * time.Second)

	// Every replica applies the same decisions in the same order.
	for _, d := range logs[4].Recorder().All() {
		fmt.Printf("instance %d: %s\n", d.Instance, d.Value)
	}
	// The leader's own command wins instance 0 (forwarded ones take one
	// extra hop); the run is deterministic for a fixed seed.
	// Output:
	// instance 0: beta
	// instance 1: alpha
	// instance 2: gamma
}
