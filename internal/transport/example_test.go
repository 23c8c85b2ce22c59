package transport_test

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/transport"
)

// Example runs the communication-efficient Omega on real goroutines, each
// process a TCP endpoint on the loopback interface, every message
// serialized through the wire codec.
func Example() {
	const n = 3
	dets := make([]*core.Detector, n)
	autos := make([]node.Automaton, n)
	for i := 0; i < n; i++ {
		dets[i] = core.New(core.WithEta(5 * time.Millisecond))
		autos[i] = dets[i]
	}
	cluster, err := transport.NewTCPCluster(transport.Config{N: n, Seed: 1, Quiet: true}, autos)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	cluster.Start()
	defer cluster.Stop()

	// Poll the (thread-safe) histories until everyone agrees.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		agreed := true
		for _, d := range dets {
			if d.History().Current() != 0 {
				agreed = false
				break
			}
		}
		if agreed {
			fmt.Println("all processes trust p0")
			return
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Println("no agreement")
	// Output: all processes trust p0
}
