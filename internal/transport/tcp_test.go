package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/wire"
)

func TestTCPClusterElectsLeader(t *testing.T) {
	autos, dets := liveDetectors(4)
	c, err := NewTCPCluster(Config{N: 4, Seed: 11, Quiet: true}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	waitFor(t, 10*time.Second, func() bool {
		l, ok := agreement(dets, nil)
		return ok && l == 0
	}, "TCP leader agreement")
	if c.Addr(0) == nil {
		t.Fatal("no bound address")
	}
}

func TestTCPClusterLeaderCrash(t *testing.T) {
	for _, n := range []int{3, 4} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			autos, dets := liveDetectors(n)
			c, err := NewTCPCluster(Config{N: n, Seed: 12, Quiet: true}, autos)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			defer c.Stop()
			waitFor(t, 10*time.Second, func() bool {
				l, ok := agreement(dets, nil)
				return ok && l == 0
			}, "initial agreement")
			c.Crash(0)
			waitFor(t, 15*time.Second, func() bool {
				l, ok := agreement(dets, map[int]bool{0: true})
				return ok && l == 1
			}, "TCP re-election")
		})
	}
}

func TestTCPClusterCommunicationEfficiency(t *testing.T) {
	for _, n := range []int{4, 5} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			autos, dets := liveDetectors(n)
			c, err := NewTCPCluster(Config{N: n, Seed: 13, Quiet: true}, autos)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			defer c.Stop()
			waitFor(t, 10*time.Second, func() bool {
				l, ok := agreement(dets, nil)
				return ok && l == 0
			}, "agreement")
			expectSteadySender(t, c.stations[0], c.Stats(), dets, 0)
		})
	}
}

func TestTCPStopIsIdempotentAndClean(t *testing.T) {
	autos, _ := liveDetectors(3)
	c, err := NewTCPCluster(Config{N: 3, Seed: 14, Quiet: true}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	time.Sleep(50 * time.Millisecond)
	c.Stop()
	c.Stop()
}

// hostileConn dials process id's listener and returns the raw connection,
// for injecting malformed frames.
func hostileConn(t *testing.T, c *TCPCluster, id node.ID) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", c.Addr(id).String())
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// expectClosed asserts the peer closes conn within the deadline (reads
// drain anything pending, then hit EOF/reset).
func expectClosed(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	for {
		_, err := conn.Read(buf)
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("%s: connection still open after 5s", what)
		}
		if err != nil {
			return
		}
	}
}

func TestTCPOversizedFrameDropsConnectionNotStation(t *testing.T) {
	autos, dets := liveDetectors(3)
	c, err := NewTCPCluster(Config{N: 3, Seed: 16, Quiet: true}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	waitFor(t, 10*time.Second, func() bool {
		l, ok := agreement(dets, nil)
		return ok && l == 0
	}, "agreement before attack")

	conn := hostileConn(t, c, 0)
	defer conn.Close()
	var header [4]byte
	binary.BigEndian.PutUint32(header[:], wire.MaxFrame+1)
	if _, err := conn.Write(header[:]); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn, "oversized frame")

	// The station survived: the cluster keeps its leader and traffic.
	sent := c.Stats().TotalSent()
	waitFor(t, 10*time.Second, func() bool {
		l, ok := agreement(dets, nil)
		return ok && l == 0 && c.Stats().TotalSent() > sent
	}, "agreement after oversized frame")
}

func TestTCPCorruptEnvelopeDropsConnectionNotStation(t *testing.T) {
	autos, dets := liveDetectors(3)
	c, err := NewTCPCluster(Config{N: 3, Seed: 17, Quiet: true}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	waitFor(t, 10*time.Second, func() bool {
		l, ok := agreement(dets, nil)
		return ok && l == 0
	}, "agreement before attack")

	// Well-framed but undecodable envelopes: framing can no longer be
	// trusted, so the receiver must cut the connection. The second is a
	// heartbeat from p1 as the fixed-width encoding wrote it (big-endian
	// sender id, LEADER's type code 1, big-endian epoch): it has no marker
	// byte, so it is refused like any other garbage.
	for what, envelope := range map[string][]byte{
		"corrupt envelope":      {0xff, 0xfe, 0xfd, 0xfc, 0xfb},
		"fixed-width heartbeat": {0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 9},
	} {
		conn := hostileConn(t, c, 0)
		defer conn.Close()
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(envelope)))
		if _, err := conn.Write(append(frame, envelope...)); err != nil {
			t.Fatal(err)
		}
		expectClosed(t, conn, what)
	}

	sent := c.Stats().TotalSent()
	waitFor(t, 10*time.Second, func() bool {
		l, ok := agreement(dets, nil)
		return ok && l == 0 && c.Stats().TotalSent() > sent
	}, "agreement after corrupt envelope")
}

func TestTCPReconnectRecoversDelivery(t *testing.T) {
	autos, dets := liveDetectors(3)
	c, err := NewTCPCluster(Config{N: 3, Seed: 18, Quiet: true, WriteTimeout: 200 * time.Millisecond}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	waitFor(t, 10*time.Second, func() bool {
		l, ok := agreement(dets, nil)
		return ok && l == 0
	}, "agreement before reset")

	// Sever every established connection server-side. The per-peer
	// senders must notice the broken links, back off, re-dial, and
	// restore delivery without any station dying.
	c.mu.Lock()
	for _, conn := range c.accepted {
		_ = conn.Close()
	}
	c.accepted = c.accepted[:0]
	c.mu.Unlock()

	// The lost heartbeats may cost p0 an accusation, legitimately moving
	// leadership — what must hold is that delivery resumes and every
	// process converges on one leader again.
	delivered := c.Stats().Delivered()
	waitFor(t, 15*time.Second, func() bool {
		_, ok := agreement(dets, nil)
		return ok && c.Stats().Delivered() > delivered+20
	}, "delivery recovery after connection reset")
}

// TestTCPRedialedLinkHoldsOneSocket: an inbound connection whose read loop
// ends — here severed five times, each followed by the sender's redial, and
// a stranger that dials and hangs up — is closed and taken off the books.
// Before, the loop returned without closing (the socket sat in CLOSE_WAIT)
// and c.accepted only ever grew, until Stop.
func TestTCPRedialedLinkHoldsOneSocket(t *testing.T) {
	const n = 3
	autos := make([]node.Automaton, n)
	for i := range autos {
		autos[i] = &countingAutomaton{}
	}
	c, err := NewTCPCluster(Config{N: n, Seed: 19, Quiet: true, WriteTimeout: 200 * time.Millisecond}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	traffic := func() { // every directed link carries something, so a cut one is noticed and redialed
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if from != to {
					c.Inject(node.ID(from), node.ID(to), core.LeaderMsg{Epoch: 1})
				}
			}
		}
	}
	accepted := func() int { c.mu.Lock(); defer c.mu.Unlock(); return len(c.accepted) }
	settled := func() bool { traffic(); return c.OpenConns() == n*(n-1) && accepted() == n*(n-1) }
	waitFor(t, 10*time.Second, settled, "the full mesh")

	for k := 0; k < 5; k++ {
		dials := c.Dials()
		c.mu.Lock()
		_ = c.accepted[0].Close()
		c.mu.Unlock()
		waitFor(t, 10*time.Second, func() bool { traffic(); return c.Dials() > dials }, "the redial")
		waitFor(t, 10*time.Second, settled, "one socket and one slot per link after a redial")
	}

	stranger := hostileConn(t, c, 0)
	waitFor(t, 10*time.Second, func() bool { return c.OpenConns() == n*(n-1)+1 }, "the stranger's connection")
	_ = stranger.Close()
	waitFor(t, 10*time.Second, settled, "the stranger's slot to be given back")
}

func TestTCPSendAfterStopDropsQuietly(t *testing.T) {
	dets := []*core.Detector{core.New(core.WithEta(5 * time.Millisecond)), core.New(core.WithEta(5 * time.Millisecond))}
	autos := []node.Automaton{dets[0], dets[1]}
	c, err := NewTCPCluster(Config{N: 2, Seed: 15, Quiet: true}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	time.Sleep(30 * time.Millisecond)
	c.Stop()
	before := c.Stats().Dropped()
	(&tcpNet{cluster: c}).send(0, 1, core.LeaderMsg{Epoch: 1})
	if c.Stats().Dropped() != before+1 {
		t.Fatal("send after stop not accounted as drop")
	}
}

// TestTCPCrashedFollowerCostsAProbe: of five on loopback TCP, under a
// client writing a command a millisecond through p1, follower p3 crashes.
// From a retryTimeout after the crash (100 ms, with as much again for
// slack) the leader p0 sends it, over 2 s, its Omega heartbeats and one rsm
// message a retryTimeout — a probe, not every ACCEPT — while the live
// replicas go on applying.
//
// The bound assumes p0 leads throughout the window. A host too starved to
// run p0's heartbeats every η lets a follower time out on it; p0 then
// prepares again, its abdication resets p3's record, and p3 is streamed
// every ACCEPT for another retryTimeout. The test names that premise when
// it fails: p0's PREPAREs in the window, the leader changes each detector
// made in it, and p0's heartbeats against one per η. A set-up that never
// sees p0 lead with a write applied names its own: each detector's output,
// every leader change since Start, and p0's PREPAREs.
func TestTCPCrashedFollowerCostsAProbe(t *testing.T) {
	const n, down, eta = 5, 3, 5 * time.Millisecond
	autos := make([]node.Automaton, n)
	dets := make([]*core.Detector, n)
	logs := make([]*rsm.Node, n)
	for i := range autos {
		dets[i] = core.New(core.WithEta(eta))
		logs[i] = rsm.New(dets[i], rsm.Config{DriveInterval: 10 * time.Millisecond})
		autos[i] = node.Compose(dets[i], logs[i])
	}
	var applied atomic.Int64 // at p1
	logs[1].OnApply(func(int, int, consensus.Value) { applied.Add(1) })
	c, err := NewTCPCluster(Config{N: n, Seed: 14, Quiet: true}, autos)
	if err != nil {
		t.Fatal(err)
	}
	// changes lists the leader changes detector i made after its marks[i]-th.
	changes := func(marks []int) []string {
		var moves []string
		for i, d := range dets {
			for _, ch := range d.History().Changes()[marks[i]:] {
				moves = append(moves, fmt.Sprintf("p%d→p%d at %v", i, ch.Leader, ch.At))
			}
		}
		return moves
	}
	c.Start()
	defer c.Stop()
	booted := func() bool {
		l, ok := agreement(dets, nil)
		if ok && l == 0 && applied.Load() == 0 {
			c.Inject(1, 0, rsm.RequestMsg{V: "boot"})
		}
		return ok && l == 0 && applied.Load() > 0
	}
	for deadline := time.Now().Add(10 * time.Second); !booted(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			outputs := make([]node.ID, n)
			for i, d := range dets {
				outputs[i] = d.History().Current()
			}
			moves := changes(make([]int, n))
			t.Fatalf("timed out waiting for leader 0 with a write applied at p1 (%d applied): the detectors output %v, changed leader %d times since Start %v, and p0 sent %d PREPAREs",
				applied.Load(), outputs, len(moves), moves, c.Stats().SentByKind(0, rsm.KindPrepare))
		}
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { // the client
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
				c.Inject(1, 0, rsm.RequestMsg{V: consensus.Value(fmt.Sprintf("w%d", i))})
			}
		}
	}()
	c.Crash(down)
	time.Sleep(200 * time.Millisecond)
	stats := c.Stats()
	links, beats, before := stats.LinkCount(0, down), stats.SentByKind(0, core.KindLeader), applied.Load()
	prepares := stats.SentByKind(0, rsm.KindPrepare)
	marks := make([]int, n)
	for i, d := range dets {
		marks[i] = d.History().NumChanges()
	}
	const window = 2 * time.Second
	time.Sleep(window)
	close(stop)
	<-done
	// p0's heartbeats go to every follower alike; the rest to p3 is rsm.
	hb := (stats.SentByKind(0, core.KindLeader) - beats) / (n - 1)
	rsmSent := stats.LinkCount(0, down) - links - hb
	prepared := stats.SentByKind(0, rsm.KindPrepare) - prepares
	moves := changes(marks)
	premise := fmt.Sprintf("p0 sent %d PREPAREs in the window, the detectors changed leader %d times in it %v, and p0 sent %d heartbeats per follower against %d at one per η",
		prepared, len(moves), moves, hb, window/eta)
	if prepared > 0 {
		t.Errorf("premise broken: p0 re-prepared and streamed to p%d again: %s (likely a starved host)", down, premise)
	}
	if probes := uint64(window/(100*time.Millisecond)) + 3; rsmSent > probes {
		t.Errorf("p0 sent the crashed p%d %d rsm messages over %v, want at most %d; %s", down, rsmSent, window, probes, premise)
	}
	if got := applied.Load() - before; got < int64(window/time.Millisecond)/2 {
		t.Errorf("p1 applied %d commands over %v of a command a millisecond; %s", got, window, premise)
	}
	t.Logf("over %v: %d rsm messages and %d heartbeats (%d at one per η) to p%d, %d commands applied at p1", window, rsmSent, hb, window/eta, down, applied.Load()-before)
}
