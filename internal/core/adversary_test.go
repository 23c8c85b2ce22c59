package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
)

// TestRandomAdversaryLosslessAlwaysConverges is the core liveness property
// under the paper's assumptions, tested against a randomized adversary:
// every directed link independently gets a random lossless profile
// (timely with random bound, eventually timely with random GST-era chaos,
// or reliable with random delays), and a random minority of processes
// crashes at random times. In every such world the algorithm must reach
// agreement on a correct leader and stay there.
func TestRandomAdversaryLosslessAlwaysConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("long randomized sweep")
	}
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4) // 3..6
		gst := sim.At(time.Duration(rng.Intn(300)) * time.Millisecond)

		w, err := node.NewWorld(node.WorldConfig{
			N: n, Seed: seed, GST: gst,
			DefaultLink: network.Timely(2 * time.Millisecond),
		})
		if err != nil {
			t.Fatal(err)
		}
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if from == to {
					continue
				}
				if err := w.Fabric.SetProfile(from, to, randomLosslessProfile(rng)); err != nil {
					t.Fatal(err)
				}
			}
		}
		ds := make([]*Detector, n)
		for i := range ds {
			ds[i] = New(WithEta(10 * time.Millisecond))
			w.SetAutomaton(node.ID(i), ds[i])
		}
		w.Start()
		// Crash a random strict minority at random times.
		crashes := rng.Intn(n) // 0..n-1, keeps at least one alive
		perm := rng.Perm(n)
		for i := 0; i < crashes; i++ {
			w.CrashAt(node.ID(perm[i]), sim.At(time.Duration(rng.Intn(500))*time.Millisecond))
		}
		// "Eventually forever" under random delays has heavy tails: a
		// rare long delivery gap can flip the leader once more before
		// the grown timeout absorbs it. Run until the outputs have been
		// simultaneously stable and agreed for 15 virtual seconds, with
		// a generous cap.
		const (
			stableFor  = 15 * time.Second
			horizonCap = 5 * time.Minute
		)
		stableAndAgreed := func() (node.ID, bool) {
			leader := node.None
			lastChange := sim.TimeZero
			for i, d := range ds {
				if !w.Alive(node.ID(i)) {
					continue
				}
				if leader == node.None {
					leader = d.Leader()
				} else if d.Leader() != leader {
					return node.None, false
				}
				if at, _ := d.History().StableSince(); at > lastChange {
					lastChange = at
				}
			}
			if leader == node.None || !w.Alive(leader) {
				return node.None, false
			}
			return leader, w.Kernel.Now().Sub(lastChange) >= stableFor
		}
		var leader node.ID
		for {
			w.RunFor(5 * time.Second)
			var ok bool
			if leader, ok = stableAndAgreed(); ok {
				break
			}
			if w.Kernel.Now() > sim.At(horizonCap) {
				t.Fatalf("seed %d (n=%d, gst=%v): no stable agreement within %v", seed, n, gst, horizonCap)
			}
		}
		// Communication efficiency: only the leader sent during the
		// stable window.
		senders := w.Stats.SendersSince(w.Kernel.Now().Add(-stableFor + time.Second))
		if len(senders) != 1 || senders[0] != int(leader) {
			t.Fatalf("seed %d: steady-state senders = %v, leader = p%v", seed, senders, leader)
		}
	}
}

// randomLosslessProfile draws a profile that never loses messages after
// its chaos era — the reliability assumption of the core algorithm.
func randomLosslessProfile(rng *rand.Rand) network.Profile {
	ms := time.Millisecond
	switch rng.Intn(3) {
	case 0:
		return network.Timely(time.Duration(1+rng.Intn(20)) * ms)
	case 1:
		return network.EventuallyTimely(
			time.Duration(1+rng.Intn(5))*ms,
			time.Duration(20+rng.Intn(100))*ms,
			0, // lossless chaos before GST
		)
	default:
		lo := time.Duration(1+rng.Intn(5)) * ms
		return network.Reliable(lo, lo+time.Duration(10+rng.Intn(80))*ms)
	}
}
