package relay

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
)

const ms = time.Millisecond

func TestDedupWatermarkAdvances(t *testing.T) {
	d := newDedup()
	for _, seq := range []uint64{0, 1, 2} {
		if !d.add(seq) {
			t.Fatalf("seq %d rejected", seq)
		}
	}
	if d.watermark != 3 {
		t.Fatalf("watermark = %d, want 3", d.watermark)
	}
	if len(d.sparse) != 0 {
		t.Fatalf("sparse not compacted: %v", d.sparse)
	}
	if d.add(1) {
		t.Fatal("duplicate below watermark accepted")
	}
}

func TestDedupOutOfOrder(t *testing.T) {
	d := newDedup()
	order := []uint64{5, 0, 3, 1, 2, 4}
	for _, seq := range order {
		if !d.add(seq) {
			t.Fatalf("seq %d rejected", seq)
		}
	}
	if d.watermark != 6 || len(d.sparse) != 0 {
		t.Fatalf("watermark=%d sparse=%v", d.watermark, d.sparse)
	}
	for _, seq := range order {
		if d.add(seq) {
			t.Fatalf("duplicate %d accepted", seq)
		}
	}
}

// TestDedupMatchesSetSemantics is a property test: dedup behaves exactly
// like a set over any insertion sequence.
func TestDedupMatchesSetSemantics(t *testing.T) {
	property := func(seqs []uint16) bool {
		d := newDedup()
		ref := make(map[uint64]bool)
		for _, s := range seqs {
			seq := uint64(s % 128) // force collisions
			wantNew := !ref[seq]
			ref[seq] = true
			if d.add(seq) != wantNew {
				return false
			}
		}
		for seq := uint64(0); seq < 128; seq++ {
			if d.contains(seq) != ref[seq] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// echoInner counts deliveries and answers PING with PONG to the sender.
type echoInner struct {
	env   node.Env
	got   []node.ID // senders of received pings
	pongs int
}

type ping struct{}

func (ping) KindID() obs.Kind { return obs.Intern("PING") }

type pong struct{}

func (pong) KindID() obs.Kind { return obs.Intern("PONG") }

func (e *echoInner) Start(env node.Env) { e.env = env }
func (e *echoInner) Deliver(from node.ID, m node.Message) {
	switch m.(type) {
	case ping:
		e.got = append(e.got, from)
		e.env.Send(from, pong{})
	case pong:
		e.pongs++
	}
}
func (e *echoInner) Tick(string) {}

func buildRelayWorld(t *testing.T, n int, link network.Profile) (*node.World, []*Wrapper, []*echoInner) {
	t.Helper()
	w, err := node.NewWorld(node.WorldConfig{N: n, Seed: 3, DefaultLink: link})
	if err != nil {
		t.Fatal(err)
	}
	wraps := make([]*Wrapper, n)
	inners := make([]*echoInner, n)
	for i := 0; i < n; i++ {
		inners[i] = &echoInner{}
		wraps[i] = Wrap(inners[i])
		w.SetAutomaton(node.ID(i), wraps[i])
	}
	w.Start()
	return w, wraps, inners
}

func TestPointToPointDeliveredOnlyAtDest(t *testing.T) {
	w, _, inners := buildRelayWorld(t, 4, network.Timely(ms))
	// p0 pings p2; everybody floods, but only p2 must deliver.
	inners[0].env.Send(2, ping{})
	w.RunFor(100 * ms)
	if len(inners[2].got) != 1 || inners[2].got[0] != 0 {
		t.Fatalf("p2 got %v, want one ping from p0", inners[2].got)
	}
	for _, i := range []int{1, 3} {
		if len(inners[i].got) != 0 {
			t.Fatalf("bystander p%d delivered a point-to-point ping", i)
		}
	}
	// The pong comes back (also flooded) with from = p2.
	if inners[0].pongs != 1 {
		t.Fatalf("p0 pongs = %d, want 1", inners[0].pongs)
	}
}

func TestBroadcastDeliveredEverywhereOnce(t *testing.T) {
	w, _, inners := buildRelayWorld(t, 5, network.Timely(ms))
	inners[3].env.Broadcast(ping{})
	w.RunFor(100 * ms)
	for i, inner := range inners {
		if i == 3 {
			continue
		}
		if len(inner.got) != 1 {
			t.Fatalf("p%d delivered %d copies, want exactly 1 (dedup)", i, len(inner.got))
		}
		if inner.got[0] != 3 {
			t.Fatalf("p%d saw sender %v, want origin p3", i, inner.got[0])
		}
	}
}

func TestRelayCrossesDeadDirectLink(t *testing.T) {
	w, _, inners := buildRelayWorld(t, 4, network.Timely(ms))
	// Kill the direct links both ways between p0 and p2; the flood must
	// route around them.
	w.Fabric.CutBidirectional(0, 2)
	inners[0].env.Send(2, ping{})
	w.RunFor(100 * ms)
	if len(inners[2].got) != 1 {
		t.Fatalf("p2 got %d pings across dead link, want 1 via relay", len(inners[2].got))
	}
	if inners[0].pongs != 1 {
		t.Fatal("pong did not route back around the dead link")
	}
}

func TestOriginationAccounting(t *testing.T) {
	w, wraps, inners := buildRelayWorld(t, 4, network.Timely(ms))
	inners[0].env.Broadcast(ping{})
	w.RunFor(100 * ms)
	if got := wraps[0].Originated(); got != 1 {
		t.Fatalf("p0 originated = %d, want 1", got)
	}
	// The three receivers each originate one pong.
	for i := 1; i < 4; i++ {
		if got := wraps[i].Originated(); got != 1 {
			t.Fatalf("p%d originated = %d, want 1 (its pong)", i, got)
		}
		if wraps[i].Relayed() == 0 {
			t.Fatalf("p%d relayed nothing", i)
		}
	}
}

func TestNonRelayMessagePassesThrough(t *testing.T) {
	inner := &echoInner{}
	w := Wrap(inner)
	env := &stubEnv{id: 1, n: 3}
	w.Start(env)
	w.Deliver(0, ping{}) // bare message, not an envelope
	if len(inner.got) != 1 || inner.got[0] != 0 {
		t.Fatalf("pass-through failed: %v", inner.got)
	}
}

func TestOwnFloodIgnored(t *testing.T) {
	inner := &echoInner{}
	w := Wrap(inner)
	env := &stubEnv{id: 1, n: 3}
	w.Start(env)
	w.Deliver(2, Msg{Origin: 1, Seq: 0, Dest: BroadcastDest, Inner: ping{}})
	if len(inner.got) != 0 {
		t.Fatal("delivered our own flooded message")
	}
}

func TestInnerAccessor(t *testing.T) {
	inner := &echoInner{}
	if Wrap(inner).Inner() != inner {
		t.Fatal("Inner() mismatch")
	}
}

// TestOmegaOverTimelyPathsOnly is the headline relay test: the ◊-source
// p3 has eventually timely links only to p2, and p2 only to p0/p1 — a
// timely *path* from p3 to everyone, while direct links lose 90% of
// messages. The relayed core algorithm must stabilize; the bare one must
// not.
func TestOmegaOverTimelyPathsOnly(t *testing.T) {
	build := func(relayOn bool) (*node.World, []*core.Detector) {
		w, err := node.NewWorld(node.WorldConfig{
			N: 4, Seed: 9,
			DefaultLink: network.FairLossy(ms, 30*ms, 0.9),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, link := range [][2]int{{3, 2}, {2, 0}, {2, 1}, {0, 2}, {1, 2}, {2, 3}} {
			if err := w.Fabric.SetProfile(link[0], link[1], network.Timely(2*ms)); err != nil {
				t.Fatal(err)
			}
		}
		dets := make([]*core.Detector, 4)
		for i := range dets {
			dets[i] = core.New(core.WithEta(10 * ms))
			if relayOn {
				w.SetAutomaton(node.ID(i), Wrap(dets[i]))
			} else {
				w.SetAutomaton(node.ID(i), dets[i])
			}
		}
		w.Start()
		return w, dets
	}

	w, dets := build(true)
	w.RunFor(30 * time.Second)
	leader := dets[0].Leader()
	lastChange := sim.TimeZero
	for i, d := range dets {
		if d.Leader() != leader {
			t.Fatalf("relayed run diverged: p%d trusts p%v, p0 trusts p%v", i, d.Leader(), leader)
		}
		if at, _ := d.History().StableSince(); at > lastChange {
			lastChange = at
		}
	}
	if lastChange > sim.At(20*time.Second) {
		t.Fatalf("relayed run still flapping at %v", lastChange)
	}

	// Control: without relaying the same topology keeps churning.
	w2, dets2 := build(false)
	w2.RunFor(30 * time.Second)
	flapping := false
	for _, d := range dets2 {
		if at, _ := d.History().StableSince(); at > sim.At(20*time.Second) {
			flapping = true
		}
	}
	agree := true
	for _, d := range dets2 {
		if d.Leader() != dets2[0].Leader() {
			agree = false
		}
	}
	if !flapping && agree {
		t.Fatal("bare algorithm unexpectedly stabilized without timely links")
	}
}

// stubEnv is a minimal env for direct Deliver tests.
type stubEnv struct {
	id node.ID
	n  int
}

func (s *stubEnv) ID() node.ID                    { return s.id }
func (s *stubEnv) N() int                         { return s.n }
func (s *stubEnv) Now() sim.Time                  { return 0 }
func (s *stubEnv) Send(node.ID, node.Message)     {}
func (s *stubEnv) Broadcast(node.Message)         {}
func (s *stubEnv) SetTimer(string, time.Duration) {}
func (s *stubEnv) StopTimer(string)               {}
func (s *stubEnv) Logf(string, ...any)            {}
