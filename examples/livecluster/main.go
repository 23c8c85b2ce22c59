// Livecluster: the same communication-efficient Omega automatons, but on
// real goroutines, wall-clock timers and TCP sockets instead of the
// deterministic simulator — messages cross real process boundaries through
// the binary wire codec.
//
// The program starts a five-endpoint TCP cluster on the loopback
// interface, waits for leader agreement, measures steady-state traffic,
// kills the leader and waits for the re-election.
//
//	go run ./examples/livecluster
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n = 5
	dets := make([]*core.Detector, n)
	autos := make([]node.Automaton, n)
	for i := 0; i < n; i++ {
		dets[i] = core.New(core.WithEta(20 * time.Millisecond))
		autos[i] = dets[i]
	}
	cluster, err := transport.NewTCPCluster(transport.Config{N: n, Seed: 1, Quiet: true}, autos)
	if err != nil {
		return err
	}
	cluster.Start()
	defer cluster.Stop()

	fmt.Println("five TCP endpoints on 127.0.0.1:")
	for i := 0; i < n; i++ {
		fmt.Printf("  p%d @ %v\n", i, cluster.Addr(node.ID(i)))
	}

	leader, err := waitAgreement(dets, nil, 10*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("\nleader agreed: p%v\n", leader)

	// Steady-state traffic: sample one second of sends.
	time.Sleep(300 * time.Millisecond)
	before := cluster.Stats().TotalSent()
	time.Sleep(time.Second)
	rate := cluster.Stats().TotalSent() - before
	fmt.Printf("steady-state traffic: %d msgs/s ≈ (n-1)·(1s/η) = %d\n", rate, (n-1)*50)

	fmt.Printf("\nkilling p%v...\n", leader)
	start := time.Now()
	cluster.Crash(leader)
	newLeader, err := waitAgreement(dets, map[node.ID]bool{leader: true}, 15*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("re-elected p%v in %v (wall clock)\n", newLeader, time.Since(start).Round(time.Millisecond))
	fmt.Printf("total traffic: %s\n", cluster.Stats().Summary())
	return nil
}

// waitAgreement polls the detector histories (thread-safe) until every
// non-skipped process outputs the same leader.
func waitAgreement(dets []*core.Detector, skip map[node.ID]bool, timeout time.Duration) (node.ID, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		leader := node.None
		agreed := true
		for i, d := range dets {
			if skip[node.ID(i)] {
				continue
			}
			l := d.History().Current()
			if leader == node.None {
				leader = l
			} else if l != leader {
				agreed = false
				break
			}
		}
		if agreed && leader != node.None && !skip[leader] {
			return leader, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return node.None, fmt.Errorf("no agreement within %v", timeout)
}
