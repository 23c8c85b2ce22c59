package alltoall

import (
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
)

const (
	ms  = time.Millisecond
	eta = 10 * ms
)

func buildWorld(t *testing.T, n int, seed int64, link network.Profile, gst sim.Time) (*node.World, []*Detector) {
	t.Helper()
	w, err := node.NewWorld(node.WorldConfig{N: n, Seed: seed, GST: gst, DefaultLink: link})
	if err != nil {
		t.Fatal(err)
	}
	ds := make([]*Detector, n)
	for i := range ds {
		ds[i] = New(Config{Eta: eta})
		w.SetAutomaton(node.ID(i), ds[i])
	}
	return w, ds
}

func TestConvergesWithTimelyLinks(t *testing.T) {
	w, ds := buildWorld(t, 5, 1, network.Timely(2*ms), 0)
	w.Start()
	w.RunFor(time.Second)
	for i, d := range ds {
		if d.Leader() != 0 {
			t.Fatalf("p%d leader = %v, want p0", i, d.Leader())
		}
	}
}

func TestLeaderCrashPromotesNext(t *testing.T) {
	w, ds := buildWorld(t, 5, 2, network.Timely(2*ms), 0)
	w.Start()
	w.CrashAt(0, sim.At(200*ms))
	w.RunFor(time.Second)
	for i := 1; i < 5; i++ {
		if got := ds[i].Leader(); got != 1 {
			t.Fatalf("p%d leader = %v, want p1", i, got)
		}
		if !ds[i].Suspected(0) {
			t.Fatalf("p%d does not suspect crashed p0", i)
		}
	}
}

func TestEveryProcessKeepsSending(t *testing.T) {
	w, _ := buildWorld(t, 6, 3, network.Timely(2*ms), 0)
	w.Start()
	w.RunFor(time.Second)
	senders := w.Stats.Snapshot().SendersSince(sim.At(900 * ms))
	if len(senders) != 6 {
		t.Fatalf("steady-state senders = %v, want all 6 (all-to-all is not communication-efficient)", senders)
	}
	links := w.Stats.LinksUsedSince(sim.At(900 * ms))
	if links != 30 {
		t.Fatalf("links used = %d, want n(n-1)=30", links)
	}
}

func TestSteadyStateQuadraticMessageRate(t *testing.T) {
	w, _ := buildWorld(t, 5, 4, network.Timely(2*ms), 0)
	w.Start()
	w.RunFor(time.Second)
	got := w.Stats.Snapshot().MessagesInWindow(sim.At(500*ms), sim.At(500*ms+eta))
	if got != 20 {
		t.Fatalf("messages per η = %d, want n(n-1)=20", got)
	}
}

func TestForgivenessGrowsTimeout(t *testing.T) {
	// Delays near the base timeout cause false suspicions; the adaptive
	// timeout must make them die out so the leader stabilizes.
	w, ds := buildWorld(t, 3, 5, network.Timely(40*ms), 0)
	w.Start()
	w.RunFor(20 * time.Second)
	for i, d := range ds {
		if got := d.Leader(); got != 0 {
			t.Fatalf("p%d leader = %v, want p0 after timeouts adapt", i, got)
		}
	}
	// No leader changes in the final quarter of the run.
	for i, d := range ds {
		if at, _ := d.History().StableSince(); at > sim.At(15*time.Second) {
			t.Fatalf("p%d still flapping at %v", i, at)
		}
	}
}

func TestConvergesAfterGST(t *testing.T) {
	gst := sim.At(300 * ms)
	w, ds := buildWorld(t, 4, 6, network.EventuallyTimely(2*ms, 150*ms, 0.3), gst)
	w.Start()
	w.RunFor(5 * time.Second)
	for i, d := range ds {
		if d.Leader() != 0 {
			t.Fatalf("p%d leader = %v, want p0", i, d.Leader())
		}
	}
}

func TestOscillatesUnderPersistentLoss(t *testing.T) {
	// Fair-lossy links everywhere except p2's output links: the strong
	// all-links assumption is violated, and the all-to-all detector keeps
	// suspecting/forgiving forever — this is the E8 boundary that
	// motivates the gossiped-counter baseline.
	w, ds := buildWorld(t, 4, 7, network.FairLossy(ms, 30*ms, 0.5), 0)
	if err := w.Fabric.SetOutgoing(2, network.Timely(2*ms)); err != nil {
		t.Fatal(err)
	}
	w.Start()
	w.RunFor(20 * time.Second)
	flapping := false
	for _, d := range ds {
		if at, _ := d.History().StableSince(); at > sim.At(15*time.Second) {
			flapping = true
		}
	}
	if !flapping {
		t.Fatal("expected persistent leader flapping under fair-lossy links")
	}
}

func TestUnknownMessageIgnored(t *testing.T) {
	w, ds := buildWorld(t, 2, 8, network.Timely(ms), 0)
	w.Start()
	w.RunFor(50 * ms)
	ds[1].Deliver(0, strangeMsg{})
	if ds[1].Leader() != 0 {
		t.Fatal("unknown message changed leader")
	}
}

type strangeMsg struct{}

func (strangeMsg) KindID() obs.Kind { return obs.Intern("STRANGE") }

func TestConfigDefaults(t *testing.T) {
	d := New(Config{})
	if d.cfg.Eta != 10*ms {
		t.Fatalf("defaults = %+v", d.cfg)
	}
}
