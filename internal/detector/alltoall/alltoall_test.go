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
	senders := w.Stats.SendersSince(sim.At(900 * ms))
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
	// The window [500ms, 500ms+η) is counted at its edges, each read with
	// the clock a nanosecond short of it.
	w.RunUntil(sim.At(500*ms)-1, nil)
	before := w.Stats.TotalSent()
	w.RunUntil(sim.At(500*ms+eta)-1, nil)
	got := w.Stats.TotalSent() - before
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

// nopEnv is a hand-driven node.Env that does nothing but remember the
// last timer armed, so a test can count what the detector itself
// allocates.
type nopEnv struct {
	n     int
	armed string
}

func (e *nopEnv) ID() node.ID                          { return 0 }
func (e *nopEnv) N() int                               { return e.n }
func (e *nopEnv) Now() sim.Time                        { return 0 }
func (e *nopEnv) Send(node.ID, node.Message)           {}
func (e *nopEnv) Broadcast(node.Message)               {}
func (e *nopEnv) SetTimer(key string, _ time.Duration) { e.armed = key }
func (e *nopEnv) StopTimer(string)                     {}
func (e *nopEnv) Logf(string, ...any)                  {}

// TestMonitorPathAllocatesNothing: an ALIVE re-arms its sender's monitor
// and an expiry suspects the process it names, with the keys built once
// at Start — neither allocates when the leader stays put.
func TestMonitorPathAllocatesNothing(t *testing.T) {
	env := &nopEnv{n: 5}
	d := New(Config{Eta: eta})
	d.Start(env)
	var alive node.Message = AliveMsg{}
	if a := testing.AllocsPerRun(100, func() { d.Deliver(3, alive) }); a != 0 {
		t.Errorf("ALIVE delivery: %v allocs, want 0", a)
	}
	if env.armed != "alltoall/mon/3" {
		t.Fatalf("delivery from p3 armed %q", env.armed)
	}
	if a := testing.AllocsPerRun(100, func() { d.Tick("alltoall/mon/4") }); a != 0 {
		t.Errorf("monitor expiry: %v allocs, want 0", a)
	}
	if !d.Suspected(4) || d.Suspected(3) || d.Leader() != 0 {
		t.Fatalf("after p4's expiry: suspected p4 %v, p3 %v, leader p%d", d.Suspected(4), d.Suspected(3), d.Leader())
	}
}
