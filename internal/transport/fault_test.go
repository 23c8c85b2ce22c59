package transport

import (
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/faultline"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/wire"
)

// pingMsg returns a small registered wire message for hand-driven sends.
func pingMsg() node.Message { return core.LeaderMsg{Epoch: 1} }

// bigMsg returns a frame-filling registered message of roughly size bytes.
func bigMsg(size int) node.Message {
	return rsm.RequestMsg{V: consensus.Value(strings.Repeat("x", size))}
}

// idleAutomaton does nothing; tests use it when they drive the send path
// by hand and only care about transport mechanics, not protocol traffic.
type idleAutomaton struct{}

func (idleAutomaton) Start(node.Env)                {}
func (idleAutomaton) Deliver(node.ID, node.Message) {}
func (idleAutomaton) Tick(string)                   {}

func idleAutomatons(n int) []node.Automaton {
	autos := make([]node.Automaton, n)
	for i := range autos {
		autos[i] = idleAutomaton{}
	}
	return autos
}

func mustInjector(t *testing.T, n int, seed int64, plan faultline.Plan) *faultline.Injector {
	t.Helper()
	inj, err := faultline.New(n, seed, plan)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestConfigRejectsMismatchedInjector(t *testing.T) {
	inj := mustInjector(t, 3, 1, faultline.Plan{})
	if _, err := NewTCPCluster(Config{N: 4, Fault: inj}, idleAutomatons(4)); err == nil {
		t.Fatal("injector for n=3 accepted by N=4 cluster")
	}
}

func TestMemClusterDownLinksDropEverything(t *testing.T) {
	inj := mustInjector(t, 3, 1, faultline.Plan{Default: network.Down()})
	c, err := NewTCPCluster(Config{N: 3, Seed: 1, Quiet: true, Fault: inj}, idleAutomatons(3))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	for i := 0; i < 20; i++ {
		c.Inject(0, 1, pingMsg())
	}
	if got := c.Stats().Dropped(); got != 20 {
		t.Fatalf("dropped = %d, want 20", got)
	}
	if got := c.Stats().Delivered(); got != 0 {
		t.Fatalf("delivered = %d over down links", got)
	}
}

func TestTCPClusterPartitionCutAndHeal(t *testing.T) {
	inj := mustInjector(t, 2, 2, faultline.Plan{})
	c, err := NewTCPCluster(Config{N: 2, Seed: 2, Quiet: true, Fault: inj}, idleAutomatons(2))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	c.Inject(0, 1, pingMsg())
	waitFor(t, 5*time.Second, func() bool { return c.Stats().Delivered() >= 1 }, "pre-cut delivery")

	inj.Cut([]node.ID{0}, []node.ID{1})
	dropsBefore := c.Stats().Dropped()
	for i := 0; i < 10; i++ {
		c.Inject(0, 1, pingMsg())
	}
	if got := c.Stats().Dropped(); got != dropsBefore+10 {
		t.Fatalf("dropped = %d, want %d: cut link leaked", got, dropsBefore+10)
	}

	inj.Heal()
	delivered := c.Stats().Delivered()
	c.Inject(0, 1, pingMsg())
	waitFor(t, 5*time.Second, func() bool { return c.Stats().Delivered() > delivered }, "post-heal delivery")
}

// TestTCPClusterScheduledCutAndHeal: a schedule's cut of 0→1 at 0 drops
// what that link carries from the start, the reverse link delivers, and
// the scheduled heal lets 0→1 deliver again.
func TestTCPClusterScheduledCutAndHeal(t *testing.T) {
	inj := mustInjector(t, 2, 2, faultline.Plan{Schedule: faultline.Schedule{
		{Op: faultline.OpCut, From: 0, To: 1},
		{At: 300 * time.Millisecond, Op: faultline.OpHeal, From: 0, To: 1},
	}})
	c, err := NewTCPCluster(Config{N: 2, Seed: 2, Quiet: true, Fault: inj}, idleAutomatons(2))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	for i := 0; i < 10; i++ {
		c.Inject(0, 1, pingMsg())
	}
	if got := c.Stats().Dropped(); got != 10 {
		t.Fatalf("dropped = %d, want 10: the scheduled cut leaked", got)
	}
	c.Inject(1, 0, pingMsg())
	waitFor(t, 5*time.Second, func() bool { return c.Stats().Delivered() == 1 }, "delivery on the uncut 1→0")

	waitFor(t, 5*time.Second, func() bool {
		c.Inject(0, 1, pingMsg())
		return c.Stats().Delivered() > 1
	}, "delivery on 0→1 after the scheduled heal")
}

func TestScheduledCrashPlanFires(t *testing.T) {
	inj := mustInjector(t, 3, 3, faultline.Plan{
		Schedule: faultline.Schedule{{At: 30 * time.Millisecond, Op: faultline.OpCrash, From: 0}},
	})
	autos, dets := liveDetectors(3)
	c, err := NewTCPCluster(Config{N: 3, Seed: 3, Quiet: true, Fault: inj}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	// The planned crash of p0 must force the survivors to re-elect p1.
	waitFor(t, 10*time.Second, func() bool {
		l, ok := agreement(dets, map[int]bool{0: true})
		return ok && l == 1
	}, "re-election after scheduled crash")
	if !c.stations[0].Down() {
		t.Fatal("crash plan did not crash p0")
	}
}

func TestTCPInjectedDropsAreAccounted(t *testing.T) {
	inj := mustInjector(t, 2, 4, faultline.Plan{Default: network.Down()})
	c, err := NewTCPCluster(Config{N: 2, Seed: 4, Quiet: true, Fault: inj}, idleAutomatons(2))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	for i := 0; i < 15; i++ {
		c.Inject(0, 1, pingMsg())
	}
	if got := c.Stats().Dropped(); got != 15 {
		t.Fatalf("dropped = %d, want 15", got)
	}
}

// TestOversizedMessageIsADrop: a message the codec will not frame — a REQ
// whose value alone is over wire.MaxFrame — is lost on its link like any
// other, one counted drop, and the message sent behind it on the same link
// arrives over the same connection. TCP used to cut the connection, with
// whatever was batched behind it, and count nothing.
func TestOversizedMessageIsADrop(t *testing.T) {
	rec := &turnLog{}
	c, err := NewTCPCluster(Config{N: 2, Seed: 43, Quiet: true}, []node.Automaton{idleAutomaton{}, rec})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	arrived := func(n int) func() bool {
		return func() bool { _, msgs := rec.snapshot(); return len(msgs) == n }
	}
	c.Inject(0, 1, pingMsg()) // dials the link before the count is taken
	waitFor(t, 5*time.Second, arrived(1), "the first message")
	dropped, dialed := c.Stats().Dropped(), c.Dials()
	next := &rsm.RequestMsg{V: "next"}
	c.Inject(0, 1, bigMsg(wire.MaxFrame+1))
	c.Inject(0, 1, next)
	waitFor(t, 5*time.Second, arrived(2), "the message behind the oversized one")
	if _, msgs := rec.snapshot(); !reflect.DeepEqual(msgs[1], node.Message(next)) {
		t.Errorf("delivered %+v, want %+v", msgs[1], next)
	}
	if got := c.Stats().Dropped(); got != dropped+1 {
		t.Errorf("%d drops counted, want 1", got-dropped)
	}
	if got := c.Dials(); got != dialed {
		t.Errorf("the link was dialed %d more times", got-dialed)
	}
}

// TestLargeCommandsDoNotWedgeTheLog: sixteen 100 KB commands reach the
// leader in one burst, each a frame well under wire.MaxFrame, and together
// more than one. A batch closes at rsm.MaxValue bytes, so every ACCEPT is a
// frame the codec takes, the burst takes two instances, and the command
// sent after it applies everywhere.
func TestLargeCommandsDoNotWedgeTheLog(t *testing.T) {
	const n = 3
	// Heartbeats queue behind megabyte frames: a detector as quick as
	// soakReplicas' would see a crashed leader, and failover is not what
	// this test is about.
	autos, dets, logs := make([]node.Automaton, n), make([]*core.Detector, n), make([]*rsm.Node, n)
	for i := range autos {
		dets[i] = core.New(core.WithEta(50*time.Millisecond), core.WithRebuff())
		logs[i] = rsm.New(dets[i], rsm.Config{DriveInterval: 10 * time.Millisecond})
		autos[i] = node.Compose(dets[i], logs[i])
	}
	c, err := NewTCPCluster(Config{N: n, Seed: 44, Quiet: true}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	everywhere := func(v consensus.Value) func() bool {
		return func() bool {
			for _, l := range logs {
				found := false
				l.Recorder().Each(func(d consensus.Decision) { found = found || d.Value == v })
				if !found {
					return false
				}
			}
			return true
		}
	}
	var leader node.ID
	waitFor(t, 10*time.Second, func() bool {
		l, ok := agreement(dets, nil)
		if ok {
			leader = l
			c.Inject((l+1)%n, l, rsm.RequestMsg{V: "boot"})
		}
		return ok && everywhere("boot")()
	}, "a leader with a command applied")
	big := strings.Repeat("b", 100<<10)
	for i := 0; i < 16; i++ {
		c.Inject((leader+1)%n, leader, rsm.RequestMsg{V: consensus.Value(string(rune('a'+i)) + big)})
	}
	c.Inject((leader+1)%n, leader, rsm.RequestMsg{V: "after"})
	waitFor(t, 5*time.Second, everywhere("after"), "the command sent behind sixteen 100 KB commands")
}

// TestTCPStalledPeerKeepsOtherLinksFast is the regression for the old
// lock-held lazy dial and deadline-less write: with one peer's reads
// frozen, sends to that peer must stay non-blocking (queue-full drops)
// and sends to healthy peers must keep bounded latency.
func TestTCPStalledPeerKeepsOtherLinksFast(t *testing.T) {
	c, err := NewTCPCluster(Config{
		N: 3, Seed: 5, Quiet: true,
		WriteTimeout: 150 * time.Millisecond,
		SendQueue:    8,
	}, idleAutomatons(3))
	if err != nil {
		t.Fatal(err)
	}
	// Replace p2's endpoint with a listener that accepts and never
	// reads: connections to it stall once kernel buffers fill.
	stall, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()
	frozen := make(chan net.Conn, 16)
	go func() {
		for {
			conn, err := stall.Accept()
			if err != nil {
				return
			}
			frozen <- conn // hold, never read
		}
	}()
	defer func() {
		for {
			select {
			case conn := <-frozen:
				_ = conn.Close()
			default:
				return
			}
		}
	}()
	_ = c.listeners[2].Close()
	c.addrs[2] = stall.Addr()
	c.Start()
	defer c.Stop()

	// Saturate the 0→2 link with large frames. Every send call must
	// return quickly — the node loop hands frames over with a
	// non-blocking enqueue, so a frozen peer costs drops, not latency.
	big := bigMsg(64 * 1024)
	var worst time.Duration
	for i := 0; i < 300; i++ {
		t0 := time.Now()
		c.Inject(0, 2, big)
		if d := time.Since(t0); d > worst {
			worst = d
		}
	}
	if worst > 100*time.Millisecond {
		t.Fatalf("send latency to stalled peer reached %v", worst)
	}
	waitFor(t, 10*time.Second, func() bool { return c.Stats().Dropped() > 0 }, "stalled link drops")

	// The healthy 0→1 link must be completely unaffected: keep sending
	// and require sustained delivery (the stalled 0→2 frames never
	// deliver, so Delivered counts 0→1 alone).
	waitFor(t, 10*time.Second, func() bool {
		t0 := time.Now()
		c.Inject(0, 1, pingMsg())
		if d := time.Since(t0); d > worst {
			worst = d
		}
		return c.Stats().Delivered() >= 20
	}, "healthy link delivery beside stalled peer")
	if worst > 100*time.Millisecond {
		t.Fatalf("send latency on healthy link reached %v", worst)
	}
}

// TestTCPUnreachablePeerDoesNotStallOthers covers the dial side: nobody
// listens at p2's address at all, so every 0→2 frame fails its dial (with
// backoff), while 0→1 keeps flowing with bounded send latency.
func TestTCPUnreachablePeerDoesNotStallOthers(t *testing.T) {
	c, err := NewTCPCluster(Config{N: 3, Seed: 6, Quiet: true}, idleAutomatons(3))
	if err != nil {
		t.Fatal(err)
	}
	_ = c.listeners[2].Close() // refuse all connections to p2
	c.Start()
	defer c.Stop()

	var worst time.Duration
	for i := 0; i < 100; i++ {
		t0 := time.Now()
		c.Inject(0, 2, pingMsg())
		c.Inject(0, 1, pingMsg())
		if d := time.Since(t0); d > worst {
			worst = d
		}
	}
	if worst > 100*time.Millisecond {
		t.Fatalf("send latency with unreachable peer reached %v", worst)
	}
	waitFor(t, 10*time.Second, func() bool { return c.Stats().Dropped() > 0 }, "unreachable link drops")
	waitFor(t, 10*time.Second, func() bool { return c.Stats().LinkCount(0, 1) >= 100 && c.Stats().Delivered() >= 50 }, "healthy link delivery")
}

func TestLiveFaultDeterminismAcrossClusters(t *testing.T) {
	// Two injectors with the same seed and plan feed two clusters whose
	// links carry the same send sequence; the injected drop pattern must
	// be identical. (The per-link decision streams are pure functions of
	// seed/plan/send-index — see faultline's package doc.)
	run := func() uint64 {
		inj := mustInjector(t, 2, 99, faultline.Plan{Default: network.Lossy(0, time.Millisecond, 0.5)})
		c, err := NewTCPCluster(Config{N: 2, Seed: 1, Quiet: true, Fault: inj}, idleAutomatons(2))
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		defer c.Stop()
		for i := 0; i < 200; i++ {
			c.Inject(0, 1, pingMsg())
		}
		return c.Stats().Dropped()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed+plan dropped %d vs %d messages", a, b)
	}
	if a == 0 || a == 200 {
		t.Fatalf("degenerate drop count %d", a)
	}
}
