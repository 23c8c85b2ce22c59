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
	if !cfg.Forget { // a forgetful log no longer serves Get on its prefix
		c.assertPrefixAgreement(t)
	}
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
// per-kind counts to quote). They were last regenerated, once, for PR 13
// — commit by index (no by-value DECIDE broadcast, LEARN debounced and
// rate-limited, a leader-elect queues forwarded commands during phase 1)
// — from the PR 11 map-based engine's values that PR 12 had held:
//
//	default       DECIDE 2741→388, LEARN 29→0, ACCEPT 2636→2564, ACCEPTED 2304→2277, REQ 2868→2729
//	forget+lease  (was piggyback+forget+lease) DECIDE 13→352, LEARN 928→123, ACCEPT 2300→2988, ACCEPTED 2099→2614, REQ 5179→4326
//	unbatched     DECIDE 14595→0, LEARN 14→0, ACCEPT 14468→14352, ACCEPTED 11096→11105, REQ 29251→32376
//
// with LEADER, ACCUSE, PREPARE, PROMISE, LEASE and LEASEACK unchanged.
func TestGoldenSchedule(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"default", Config{BatchMax: 16, Window: 8, DriveInterval: 5 * ms},
			"0ef277c7fa0f77cb14473f8bf0b88e112fe279a3bd1e1e15f7f96295ee12e294"},
		{"forget+lease", Config{BatchMax: 8, Window: 4, DriveInterval: 5 * ms,
			Forget: true, Lease: 300 * ms},
			"58562ffda94f9ff855539864f7b92afa8be3feb58857275b8b01bfc7d789216d"},
		{"unbatched", Config{BatchMax: 1, Window: 1},
			"5e735c75b518fd7d96304536f7d26d7f818851fe3c2b24d48f2df5a0b22e3524"},
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
