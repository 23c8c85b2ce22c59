package source

import (
	"testing"
	"testing/quick"
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
		t.Fatalf("leader = p%v, want p0", got)
	}
}

func TestLeaderCrashPromotesNext(t *testing.T) {
	w, ds := buildWorld(t, 5, 2, network.Timely(2*ms), 0)
	w.Start()
	w.CrashAt(0, sim.At(200*ms))
	w.RunFor(2 * time.Second)
	if got := assertAgreement(t, w, ds); got != 1 {
		t.Fatalf("leader = p%v, want p1", got)
	}
}

func TestSurvivesFairLossyWithSource(t *testing.T) {
	// The paper's weak-assumption regime: all links fair-lossy except the
	// ◊-source's output links. The gossiped-counter detector must still
	// converge where the plain all-to-all one flaps (see the alltoall
	// package test).
	const n, src = 4, 2
	w, ds := buildWorld(t, n, 3, network.FairLossy(ms, 30*ms, 0.5), 0)
	if err := w.Fabric.SetOutgoing(src, network.Timely(2*ms)); err != nil {
		t.Fatal(err)
	}
	w.Start()
	w.RunFor(60 * time.Second)
	leader := assertAgreement(t, w, ds)
	if !w.Alive(leader) {
		t.Fatalf("leader p%v crashed", leader)
	}
	// Stability: no change in the final 20 seconds at any process.
	for i, d := range ds {
		if at, _ := d.History().StableSince(); at > sim.At(40*time.Second) {
			t.Fatalf("p%d still flapping at %v", i, at)
		}
	}
}

func TestNotCommunicationEfficient(t *testing.T) {
	w, _ := buildWorld(t, 5, 4, network.Timely(2*ms), 0)
	w.Start()
	w.RunFor(time.Second)
	senders := w.Stats.SendersSince(sim.At(900 * ms))
	if len(senders) != 5 {
		t.Fatalf("steady-state senders = %v, want all 5", senders)
	}
}

func TestCountersGossipToMax(t *testing.T) {
	w, ds := buildWorld(t, 3, 5, network.Timely(2*ms), 0)
	w.Start()
	w.CrashAt(2, sim.At(50*ms))
	w.RunFor(2 * time.Second)
	// Everyone times out on the crashed p2 repeatedly; gossip must keep
	// the surviving processes' views of counter[2] close (within the
	// in-flight window) and strictly positive.
	c0, c1 := ds[0].Counter(2), ds[1].Counter(2)
	if c0 == 0 || c1 == 0 {
		t.Fatalf("counters for crashed process = %d,%d; want positive", c0, c1)
	}
	diff := int64(c0) - int64(c1)
	if diff < 0 {
		diff = -diff
	}
	if diff > 3 {
		t.Fatalf("gossiped counters diverged: %d vs %d", c0, c1)
	}
}

func TestMergeIsMonotoneIdempotentCommutative(t *testing.T) {
	// Property test on the counter-merge lattice the correctness argument
	// leans on: max-merge never decreases entries, is idempotent, and is
	// commutative.
	merge := func(a, b []uint64) []uint64 {
		out := make([]uint64, len(a))
		copy(out, a)
		for i := range b {
			if i < len(out) && b[i] > out[i] {
				out[i] = b[i]
			}
		}
		return out
	}
	property := func(a, b []uint64) bool {
		if len(a) < len(b) {
			a, b = b, a
		}
		b = append([]uint64(nil), b...)
		for len(b) < len(a) {
			b = append(b, 0)
		}
		ab := merge(a, b)
		ba := merge(b, a)
		for i := range ab {
			if ab[i] != ba[i] { // commutative
				return false
			}
			if ab[i] < a[i] || ab[i] < b[i] { // monotone
				return false
			}
		}
		again := merge(ab, b)
		for i := range again {
			if again[i] != ab[i] { // idempotent
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAliveMsgCopiesCounters(t *testing.T) {
	counters := []uint64{1, 2, 3}
	m := NewAliveMsg(counters)
	counters[0] = 99
	if m.Counters[0] != 1 {
		t.Fatal("AliveMsg aliased the caller's slice")
	}
}

func TestMalformedVectorIgnored(t *testing.T) {
	w, ds := buildWorld(t, 3, 6, network.Timely(ms), 0)
	w.Start()
	w.RunFor(50 * ms)
	before := ds[1].Counter(0)
	ds[1].Deliver(0, AliveMsg{Counters: []uint64{9, 9}}) // wrong length for n=3
	if ds[1].Counter(0) != before {
		t.Fatal("malformed vector merged")
	}
	ds[1].Deliver(0, strangeMsg{})
	if ds[1].Counter(0) != before {
		t.Fatal("unknown message merged")
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
// and an expiry accuses the process it names and re-arms its monitor,
// with the keys built once at Start — neither allocates when the leader
// stays put.
func TestMonitorPathAllocatesNothing(t *testing.T) {
	env := &nopEnv{n: 5}
	d := New(Config{Eta: eta})
	d.Start(env)
	var alive node.Message = AliveMsg{Counters: make([]uint64, 5)}
	if a := testing.AllocsPerRun(100, func() { d.Deliver(3, alive) }); a != 0 {
		t.Errorf("ALIVE delivery: %v allocs, want 0", a)
	}
	if env.armed != "source/mon/3" {
		t.Fatalf("delivery from p3 armed %q", env.armed)
	}
	if a := testing.AllocsPerRun(100, func() { d.Tick("source/mon/4") }); a != 0 {
		t.Errorf("monitor expiry: %v allocs, want 0", a)
	}
	if env.armed != "source/mon/4" || d.Counter(4) != 101 || d.Counter(3) != 0 || d.Leader() != 0 {
		t.Fatalf("after p4's expiries: armed %q, counters p4 %d p3 %d, leader p%d", env.armed, d.Counter(4), d.Counter(3), d.Leader())
	}
}
