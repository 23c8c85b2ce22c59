package core

import (
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
)

const ms = time.Millisecond

// eta is the heartbeat period used by the end-to-end tests.
const eta = 10 * ms

// buildWorld wires n core detectors into a simulated world.
func buildWorld(t *testing.T, n int, seed int64, link network.Profile, gst sim.Time, opts ...Option) (*node.World, []*Detector) {
	t.Helper()
	w, err := node.NewWorld(node.WorldConfig{
		N:           n,
		Seed:        seed,
		GST:         gst,
		DefaultLink: link,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := make([]*Detector, n)
	for i := range ds {
		ds[i] = New(append([]Option{WithEta(eta)}, opts...)...)
		w.SetAutomaton(node.ID(i), ds[i])
	}
	return w, ds
}

// assertAgreement checks that every alive process trusts the same correct
// process.
func assertAgreement(t *testing.T, w *node.World, ds []*Detector) node.ID {
	t.Helper()
	leader := node.None
	for i, d := range ds {
		if !w.Alive(node.ID(i)) {
			continue
		}
		if leader == node.None {
			leader = d.Leader()
		} else if d.Leader() != leader {
			t.Fatalf("disagreement: p%d trusts p%v, others trust p%v", i, d.Leader(), leader)
		}
	}
	if leader == node.None {
		t.Fatal("no alive process")
	}
	if !w.Alive(leader) {
		t.Fatalf("agreed leader p%v is crashed", leader)
	}
	return leader
}

func TestConvergesWithTimelyLinks(t *testing.T) {
	w, ds := buildWorld(t, 5, 1, network.Timely(2*ms), 0)
	w.Start()
	w.RunFor(time.Second)
	if got := assertAgreement(t, w, ds); got != 0 {
		t.Fatalf("leader = p%v, want p0 with all links timely", got)
	}
	// Communication efficiency: after stabilization only p0 sends.
	quiet := w.Stats.QuietSince(0)
	if quiet > sim.At(500*ms) {
		t.Fatalf("not quiet until %v; someone besides the leader keeps sending", quiet)
	}
	senders := w.Stats.SendersSince(sim.At(500 * ms))
	if len(senders) != 1 || senders[0] != 0 {
		t.Fatalf("senders after stabilization = %v, want [0]", senders)
	}
}

func TestLeaderCrashTriggersReelection(t *testing.T) {
	w, ds := buildWorld(t, 5, 2, network.Timely(2*ms), 0)
	w.Start()
	w.CrashAt(0, sim.At(300*ms))
	w.RunFor(time.Second)
	leader := assertAgreement(t, w, ds)
	if leader == 0 {
		t.Fatal("crashed p0 still trusted")
	}
	if leader != 1 {
		t.Fatalf("leader = p%v, want p1 (next lowest id)", leader)
	}
	senders := w.Stats.SendersSince(sim.At(800 * ms))
	if len(senders) != 1 || senders[0] != int(leader) {
		t.Fatalf("senders after re-election = %v, want [%d]", senders, leader)
	}
}

func TestCascadingCrashes(t *testing.T) {
	w, ds := buildWorld(t, 6, 3, network.Timely(2*ms), 0)
	w.Start()
	w.CrashAt(0, sim.At(200*ms))
	w.CrashAt(1, sim.At(400*ms))
	w.CrashAt(2, sim.At(600*ms))
	w.RunFor(1500 * ms)
	leader := assertAgreement(t, w, ds)
	if leader != 3 {
		t.Fatalf("leader = p%v, want p3 after p0..p2 crashed", leader)
	}
}

func TestConvergesAfterGST(t *testing.T) {
	// Note the pre-GST drop probability is zero: the paper's
	// communication-efficient algorithm assumes reliable links (delays
	// may be wild before GST, but nothing is lost). Loss regimes are
	// probed by experiment E8, where this algorithm is expected to fail.
	gst := sim.At(300 * ms)
	w, ds := buildWorld(t, 5, 4, network.EventuallyTimely(2*ms, 200*ms, 0), gst)
	w.Start()
	w.RunFor(3 * time.Second)
	assertAgreement(t, w, ds)
	// After GST plus slack, only the leader should be talking.
	leader := ds[0].Leader()
	quiet := w.Stats.QuietSince(int(leader))
	if quiet > sim.At(2500*ms) {
		t.Fatalf("no communication quiescence by %v", quiet)
	}
}

func TestSourceOnlyTopologyStillElects(t *testing.T) {
	// Only p3's outgoing links are eventually timely; every other link is
	// reliable but slow. The paper's minimal assumption for the
	// communication-efficient algorithm.
	const n, src = 5, 3
	w, ds := buildWorld(t, n, 5, network.Reliable(5*ms, 120*ms), 0)
	if err := w.Fabric.SetOutgoing(src, network.Timely(2*ms)); err != nil {
		t.Fatal(err)
	}
	w.Start()
	w.RunFor(20 * time.Second)
	leader := assertAgreement(t, w, ds)
	// Any correct stable leader satisfies Omega; with growing timeouts a
	// reliable-link process may stabilize too. What must hold is
	// communication efficiency from some point on.
	senders := w.Stats.SendersSince(sim.At(19 * time.Second))
	if len(senders) != 1 || senders[0] != int(leader) {
		t.Fatalf("senders in final second = %v, leader = p%v", senders, leader)
	}
}

func TestSourceTopologyWithCrashes(t *testing.T) {
	// p0 and p1 crash; p2 is the ◊-source. The system must converge on a
	// correct process and go quiet.
	const n, src = 5, 2
	w, ds := buildWorld(t, n, 6, network.Reliable(5*ms, 120*ms), 0)
	if err := w.Fabric.SetOutgoing(src, network.Timely(2*ms)); err != nil {
		t.Fatal(err)
	}
	w.Start()
	w.CrashAt(0, sim.At(100*ms))
	w.CrashAt(1, sim.At(150*ms))
	w.RunFor(20 * time.Second)
	leader := assertAgreement(t, w, ds)
	if leader == 0 || leader == 1 {
		t.Fatalf("crashed process p%v trusted", leader)
	}
	senders := w.Stats.SendersSince(sim.At(19 * time.Second))
	if len(senders) != 1 || senders[0] != int(leader) {
		t.Fatalf("senders in final second = %v, leader = p%v", senders, leader)
	}
}

func TestOnlyLeaderLinksCarryTrafficForever(t *testing.T) {
	w, ds := buildWorld(t, 8, 7, network.Timely(2*ms), 0)
	w.Start()
	w.RunFor(2 * time.Second)
	leader := assertAgreement(t, w, ds)
	links := w.Stats.LinksUsedSince(sim.At(1500 * ms))
	if links != 7 {
		t.Fatalf("links used in steady state = %d, want n-1 = 7 (leader p%v)", links, leader)
	}
}

func TestSteadyStateMessageRate(t *testing.T) {
	w, ds := buildWorld(t, 10, 8, network.Timely(2*ms), 0)
	w.Start()
	// In one η window the leader broadcasts once: n-1 messages. The window
	// [1800ms, 1800ms+η) is counted at its edges, each read with the clock
	// a nanosecond short of it.
	w.RunUntil(sim.At(1800*ms)-1, nil)
	before := w.Stats.TotalSent()
	w.RunUntil(sim.At(1800*ms+eta)-1, nil)
	got := w.Stats.TotalSent() - before
	w.RunUntil(sim.At(2*time.Second), nil)
	assertAgreement(t, w, ds)
	if got != 9 {
		t.Fatalf("steady-state messages per η = %d, want 9", got)
	}
}

func TestManySeedsAlwaysConverge(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		gst := sim.At(200 * ms)
		w, ds := buildWorld(t, 4, seed, network.EventuallyTimely(3*ms, 100*ms, 0), gst)
		w.Start()
		w.CrashAt(node.ID(seed%4), sim.At(50*ms*time.Duration(seed%7+1)).Add(0))
		w.RunFor(5 * time.Second)
		leader := node.None
		for i, d := range ds {
			if !w.Alive(node.ID(i)) {
				continue
			}
			if leader == node.None {
				leader = d.Leader()
			}
			if d.Leader() != leader || !w.Alive(leader) {
				t.Fatalf("seed %d: p%d trusts p%v (alive leaders must agree)", seed, i, d.Leader())
			}
		}
	}
}

func TestAsymmetricDelaysNoSplitBrain(t *testing.T) {
	// Adversarial: p0's links to half the system are fast, to the other
	// half slow; likewise p1 in mirror. Without accusation messages this
	// is the classic split-brain scenario (see ablation test below).
	w, ds := buildWorld(t, 6, 9, network.Timely(2*ms), 0)
	slow := network.Reliable(60*ms, 100*ms)
	for _, to := range []int{3, 4, 5} {
		if err := w.Fabric.SetProfile(0, to, slow); err != nil {
			t.Fatal(err)
		}
	}
	for _, to := range []int{1, 2} {
		if err := w.Fabric.SetProfile(1, to, slow); err != nil {
			t.Fatal(err)
		}
	}
	w.Start()
	w.RunFor(30 * time.Second)
	assertAgreement(t, w, ds)
	senders := w.Stats.SendersSince(sim.At(29 * time.Second))
	if len(senders) != 1 {
		t.Fatalf("multiple senders in steady state: %v", senders)
	}
}

func TestAblationNoTimeoutGrowthOscillates(t *testing.T) {
	// The only viable leader's messages always arrive after the fixed
	// timeout, so without growth the followers suspect it forever.
	w, ds := buildWorld(t, 3, 10, network.Timely(50*ms), 0,
		WithBaseTimeout(20*ms), WithoutTimeoutGrowth())
	w.Fabric.SetGST(0)
	w.Start()
	w.RunFor(3 * time.Second)
	// Leadership must keep changing at some process: compare change
	// counts in the first and second halves of the run.
	totalChanges := 0
	for _, d := range ds {
		totalChanges += d.History().NumChanges()
	}
	if totalChanges < 20 {
		t.Fatalf("expected sustained oscillation, saw only %d changes", totalChanges)
	}
	// Control: with growth the same system stabilizes.
	w2, ds2 := buildWorld(t, 3, 10, network.Timely(50*ms), 0, WithBaseTimeout(20*ms))
	w2.Start()
	w2.RunFor(10 * time.Second)
	assertAgreement(t, w2, ds2)
	last := sim.TimeZero
	for _, d := range ds2 {
		if at, _ := d.History().StableSince(); at > last {
			last = at
		}
	}
	if last > sim.At(8*time.Second) {
		t.Fatalf("control run still changing leaders at %v", last)
	}
}

func TestAblationNoAccuseMessagesSplitBrain(t *testing.T) {
	// p0 is fast toward p2..p5 but its link to p1 is down; p1 never hears
	// p0, accuses locally only, and believes itself leader forever while
	// everyone else follows p0: permanent split-brain, two senders.
	w, ds := buildWorld(t, 6, 11, network.Timely(2*ms), 0, WithoutAccuseMessages())
	if err := w.Fabric.SetProfile(0, 1, network.Down()); err != nil {
		t.Fatal(err)
	}
	// Also silence everyone else toward p1 so it cannot learn p0's
	// heartbeat epoch indirectly... (no relaying in the base algorithm,
	// so this is already the case; the cut link alone suffices.)
	w.Start()
	w.RunFor(5 * time.Second)
	if ds[1].Leader() != 1 {
		t.Fatalf("p1 leader = p%v, want itself (split-brain)", ds[1].Leader())
	}
	if ds[2].Leader() != 0 {
		t.Fatalf("p2 leader = p%v, want p0", ds[2].Leader())
	}
	senders := w.Stats.SendersSince(sim.At(4 * time.Second))
	if len(senders) != 2 {
		t.Fatalf("senders = %v, want the two split leaders", senders)
	}
	// Control: with accusation messages the identical topology converges,
	// because p1's accusations raise p0's counter at p0 itself... they
	// cannot (p1→p0 works; p0 hears and demotes? p0's counter rises and
	// it eventually yields). Assert single steady-state sender.
	w2, ds2 := buildWorld(t, 6, 11, network.Timely(2*ms), 0)
	if err := w2.Fabric.SetProfile(0, 1, network.Down()); err != nil {
		t.Fatal(err)
	}
	w2.Start()
	w2.RunFor(30 * time.Second)
	senders2 := w2.Stats.SendersSince(sim.At(29 * time.Second))
	if len(senders2) != 1 {
		t.Fatalf("control run kept %v senders", senders2)
	}
	_ = ds2
}
