package rsm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/network"
)

// goldenRun drives a seeded n=5 world through a steady open-loop load and
// one leader crash and fingerprints everything the protocol did: every
// replica's (Instance, Cmd, Value) sequence in learning order, and how
// many messages of each kind crossed the fabric. The client bursts at a
// follower (forwarding, leader-side batching), at the leader (the
// Submit fast path) and at the leader's successor (commands that are
// pending there when it takes over).
func goldenRun(t *testing.T, cfg Config) (fingerprint, counts string) {
	t.Helper()
	const n = 5
	c := newClusterCfg(t, n, 20040725, network.Timely(ms), cfg)
	c.world.Start()
	c.world.RunFor(200 * ms) // Omega settles on p0, phase 1 completes
	seq := 0
	burst := func(at, k int) {
		for i := 0; i < k; i++ {
			c.nodes[at].Submit(consensus.Value(fmt.Sprintf("g%05d@p%d", seq, at)))
			seq++
		}
	}
	for tick := 0; tick < 600; tick++ {
		if tick == 300 {
			c.world.Crash(0) // the stable leader dies under load
		}
		burst(2, 1+tick%7)
		if tick%5 == 0 {
			burst(1, 3)
		}
		if tick < 300 && tick%3 == 0 {
			burst(0, 2)
		}
		c.world.RunFor(ms)
	}
	c.world.RunFor(3 * time.Second)
	if rep := c.safety(); !rep.Holds() {
		t.Fatalf("safety: %v", rep.Violations)
	}
	c.assertPrefixAgreement(t)
	for i := 1; i < n; i++ {
		if got := c.nodes[i].Applied(); got < seq*9/10 {
			t.Fatalf("p%d applied %d of %d commands: the run does not exercise the engine", i, got, seq)
		}
	}

	h := sha256.New()
	for i, s := range c.nodes {
		fmt.Fprintf(h, "p%d\n", i)
		for _, d := range s.Recorder().All() {
			fmt.Fprintf(h, "%d %d %q\n", d.Instance, d.Cmd, d.Value)
		}
	}
	snap := c.world.Stats.Snapshot()
	kinds := snap.Kinds()
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(h, "%s %d\n", k, snap.KindCount(k))
		counts += fmt.Sprintf(" %s=%d", k, snap.KindCount(k))
	}
	return hex.EncodeToString(h.Sum(nil)), counts
}

// TestGoldenSchedule pins the engine's observable behaviour. A change
// that claims to touch only where state is stored must leave the
// fingerprints alone; a change to batching policy, message schedule or
// decision order moves them and must say why (a mismatch prints the
// per-kind counts to quote). They were last regenerated, once, for the
// leader's fan-out (pipeline.go: fanOut, reach): the crashed p0 leaves the
// successor's ACCEPTs unanswered, and a retryTimeout later it is sent only
// a probe a retryTimeout. From the values the addressed commit
// announcement had set:
//
//	default    ACCEPT 2588→2395, ACCEPTED 2296→2281
//	lease      LEASE 160→141
//	unbatched  ACCEPT 14336→11347, ACCEPTED 11091→11216, REQ 32365→32003
//
// with LEADER, ACCUSE (the detector is untouched), PREPARE, PROMISE,
// DECIDE (100 and 123), LEARN (120) and LEASEACK unchanged. The skipped
// sends no longer draw seeded delays, so what follows the crash is cut
// differently: default cuts the same commands into 641 instances where it
// cut 646 (three ACCEPTEDs an instance: 15 fewer); unbatched, whose window
// of one leaves a backlog at the followers that is forwarded again and
// again, forwards 362 REQs fewer and decides 41 more instances, each one
// more copy of a command already decided (at-least-once, as Submit says).
// The lease run's successor re-proposes its backlog in one burst and then
// idles, so the dead replica misses explicit grants, not ACCEPTs.
func TestGoldenSchedule(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"default", Config{BatchMax: 16, Window: 8, DriveInterval: 5 * ms},
			"4aec1b56ef282525d561d493288e2ff89d148a88695f04c45ab812ea469f5320"},
		{"lease", Config{BatchMax: 8, Window: 4, DriveInterval: 5 * ms, Lease: 300 * ms},
			"5b4f6e0b315b38e587cb73bb54a0b09d99f942dbdb00bc21ad2110ed651d5fb0"},
		{"unbatched", Config{BatchMax: 1, Window: 1},
			"7baadc7e7a3c76ca9de42e945e760ffb0558d811c25643a2967d4b9756e95ddb"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if got, counts := goldenRun(t, tc.cfg); got != tc.want {
				t.Fatalf("schedule fingerprint = %s, want %s\nmessages sent:%s", got, tc.want, counts)
			}
		})
	}
}
