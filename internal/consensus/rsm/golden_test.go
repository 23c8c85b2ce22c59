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
func goldenRun(t *testing.T, cfg Config) string {
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
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenSchedule pins the engine's observable behaviour. The
// fingerprints were generated on the map-based engine (PR 11's tree),
// before the bookkeeping moved to the instance window, the batcher ring
// and the chunked Recorder; they must never need regenerating for a
// change that claims to touch only where state is stored. A change to
// batching policy, message schedule or decision order moves them and
// must say why.
func TestGoldenSchedule(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"default", Config{BatchMax: 16, Window: 8, DriveInterval: 5 * ms},
			"618c979bfaa0363713a8281961eda51fd2779914bd0c7e8b327cbc0f5439c204"},
		{"piggyback+forget+lease", Config{BatchMax: 8, Window: 4, DriveInterval: 5 * ms,
			PiggybackDecides: true, Forget: true, Lease: 300 * ms},
			"762292da03908a1194a79f4d16a001d0f4a67e5d6a13deda15834a1ac33f3214"},
		{"unbatched", Config{BatchMax: 1, Window: 1},
			"edd3565de4c32ad6c184163b89d21397ee6187aae7cf899530495e7ebbdd4687"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if got := goldenRun(t, tc.cfg); got != tc.want {
				t.Fatalf("schedule fingerprint = %s, want %s", got, tc.want)
			}
		})
	}
}
