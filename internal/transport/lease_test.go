package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/faultline"
	"repro/internal/node"
)

// TestTCPLeaseCrashSafety is the linearizability-across-a-crash check for
// the read path: stabilize a lease-holding leader, kill it from the
// cluster's point of view via faultline (isolation — unlike a station
// crash, the partitioned leader keeps running, which is exactly the
// dangerous case), decide new writes under the successor, then verify
// the old leader refuses to serve any read at its stale applied index.
// The lease argument says its grants must have expired before the new
// leader could complete phase 1, so by the time the successor's write
// is observed decided, the old leader must answer zero reads: local
// serving is forbidden (lease lapsed, unrecoverable while isolated) and
// no round of grants can be acked by a quorum.
func TestTCPLeaseCrashSafety(t *testing.T) {
	const n = 3
	const lease = 400 * time.Millisecond
	inj, err := faultline.New(n, 7, faultline.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	autos := make([]node.Automaton, n)
	dets := make([]*core.Detector, n)
	logs := make([]*rsm.Node, n)
	var armed atomic.Bool
	var replies, staleLocal atomic.Int64
	for i := 0; i < n; i++ {
		dets[i] = core.New(core.WithEta(5 * time.Millisecond))
		logs[i] = rsm.New(dets[i], rsm.Config{DriveInterval: 10 * time.Millisecond, Lease: lease})
		autos[i] = node.Compose(dets[i], logs[i])
	}
	logs[0].OnReadReply(func(m rsm.ReadReplyMsg) {
		if !armed.Load() {
			return
		}
		replies.Add(1)
		if m.Local {
			staleLocal.Add(1)
		}
	})
	c, err := NewTCPCluster(Config{N: n, Seed: 7, Quiet: true, Fault: inj}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	waitFor(t, 10*time.Second, func() bool {
		for _, d := range dets {
			if d.History().Current() != 0 {
				return false
			}
		}
		return true
	}, "leader 0 stabilization")

	// Writes through the lease-holding leader, from a client of p1; grants
	// ride the accepts. Deciding 5 instances also proves leader 0's ballot
	// is prepared.
	for i := 0; i < 5; i++ {
		c.Inject(1, 1, rsm.RequestMsg{V: consensus.Value(fmt.Sprintf("pre-iso-%d", i))})
	}
	waitFor(t, 10*time.Second, func() bool {
		for _, l := range logs {
			if l.Recorder().Count() < 5 {
				return false
			}
		}
		return true
	}, "pre-isolation writes decided everywhere")
	waitFor(t, 10*time.Second, func() bool { return logs[0].LeaseHeld() }, "leader holds the read lease")

	// "Kill" the leader mid-lease: cut every link to and from it. The
	// leader itself keeps running — and keeps believing it leads.
	inj.Cut([]node.ID{0}, []node.ID{1, 2})

	// The survivors must elect a successor, wait out the lease, prepare,
	// and decide a fresh write. The probe value is distinguishable from
	// every pre-isolation command and enters at p1, on the survivors' side
	// of the cut, so seeing it decided proves a post-isolation leader
	// completed phase 1 and phase 2 — in-flight decides from the old
	// leader cannot fake it.
	decided := func(l *rsm.Node) bool {
		for _, d := range l.Recorder().All() {
			if d.Value == consensus.Value("post-iso") {
				return true
			}
		}
		return false
	}
	c.Inject(1, 1, rsm.RequestMsg{V: consensus.Value("post-iso")})
	waitFor(t, 20*time.Second, func() bool {
		return decided(logs[1]) && decided(logs[2])
	}, "successor decides a write after isolation")

	// By now the old leader's conservative lease validity must have
	// lapsed — its expiry strictly precedes any successor's phase 1.
	if logs[0].LeaseHeld() {
		t.Fatal("old leader still claims the lease after the successor decided")
	}

	// Drive reads straight into the old leader, as a client colocated
	// with it would. None may be answered: a Local reply would be a
	// stale read (its applied index misses the post-isolation writes),
	// and no round of grants is confirmed without a quorum.
	armed.Store(true)
	for i := 0; i < 30; i++ {
		c.Inject(0, 0, rsm.ReadReqMsg{Seq: uint64(1000 + i), Count: 1, Origin: 0})
		time.Sleep(10 * time.Millisecond)
	}
	if got := staleLocal.Load(); got != 0 {
		t.Fatalf("old leader served %d stale local reads after the successor decided", got)
	}
	if got := replies.Load(); got != 0 {
		t.Fatalf("old leader answered %d reads while isolated (no round can have been confirmed)", got)
	}
}

// leaseTCP boots three processes on TCP with a read lease and returns once
// process 0 leads, holds the lease and has a first write applied at the
// ingress, process 1 — whose apply and read-reply hooks the caller supplies
// before anything runs.
func leaseTCP(t *testing.T, onApply func(), onReply func(rsm.ReadReplyMsg)) *TCPCluster {
	t.Helper()
	const n = 3
	autos := make([]node.Automaton, n)
	dets := make([]*core.Detector, n)
	logs := make([]*rsm.Node, n)
	for i := range autos {
		dets[i] = core.New(core.WithEta(5 * time.Millisecond))
		logs[i] = rsm.New(dets[i], rsm.Config{DriveInterval: 10 * time.Millisecond, Lease: 400 * time.Millisecond})
		autos[i] = node.Compose(dets[i], logs[i])
	}
	var applied atomic.Int64
	logs[1].OnApply(func(int, int, consensus.Value) { applied.Add(1); onApply() })
	logs[1].OnReadReply(onReply)
	c, err := NewTCPCluster(Config{N: n, Seed: 7, Quiet: true}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	c.Inject(1, 1, rsm.RequestMsg{V: "boot"})
	waitFor(t, 10*time.Second, func() bool {
		for _, d := range dets {
			if d.History().Current() != 0 {
				return false
			}
		}
		return applied.Load() > 0 && logs[0].LeaseHeld()
	}, "leader 0 with a lease and a write applied at the ingress")
	return c
}

// TestTCPReadReqWithForeignOriginIsDropped: the frame that used to kill the
// process — the reply to an origin outside the cluster indexed the
// network's per-process tables — is dropped, and the leader goes on
// serving.
func TestTCPReadReqWithForeignOriginIsDropped(t *testing.T) {
	var answered atomic.Int64
	c := leaseTCP(t, func() {}, func(m rsm.ReadReplyMsg) {
		if m.Seq == 2 && m.Local {
			answered.Add(1)
		}
	})
	// Forged traffic: a READ on the p1→p0 link that no replica sent.
	c.Inject(1, 0, rsm.ReadReqMsg{Seq: 1, Count: 1, Origin: 7})
	waitFor(t, 10*time.Second, func() bool {
		// A read is not retried by its ingress: the client asks again.
		c.Inject(1, 1, rsm.ReadReqMsg{Seq: 2, Count: 1, Origin: 1})
		return answered.Load() > 0
	}, "a read after the hostile one")
}

// TestTCPSharedRepliesNeverGoBack is the rule bench/check.go gates the
// benchmark on, on the path that now shares replies: readers each wait for
// their answer before asking again, in bursts that reach the leader several
// to a turn, while a writer keeps the log moving; a read's Index is never
// below the applied count its client had seen acknowledged when it asked.
func TestTCPSharedRepliesNeverGoBack(t *testing.T) {
	const readers, perReader, burst = 4, 50, 8
	var acked atomic.Int64
	var need [readers * perReader * burst]atomic.Int64
	var stale atomic.Int64
	done := make([]chan struct{}, readers)
	var left [readers]atomic.Int64
	for i := range done {
		done[i] = make(chan struct{}, 1)
	}
	c := leaseTCP(t, func() { acked.Add(1) }, func(m rsm.ReadReplyMsg) {
		if !m.Local || m.Seq >= uint64(len(need)) {
			return
		}
		want := need[m.Seq].Swap(-1)
		if want < 0 {
			return // answered twice: a retry
		}
		if int64(m.Index) < want {
			stale.Add(1)
		}
		if who := int(m.Seq) / (perReader * burst); left[who].Add(-1) == 0 {
			done[who] <- struct{}{}
		}
	})
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() { // the writer
		defer close(stopped)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
				c.Inject(1, 1, rsm.RequestMsg{V: consensus.Value(fmt.Sprint("w", i))})
			}
		}
	}()
	var wg sync.WaitGroup
	for who := 0; who < readers; who++ {
		wg.Add(1)
		go func(who int) {
			defer wg.Done()
			for round := 0; round < perReader; round++ {
				first := (who*perReader + round) * burst
				left[who].Store(burst)
				for seq := first; seq < first+burst; seq++ {
					need[seq].Store(acked.Load())
					c.Inject(1, 1, rsm.ReadReqMsg{Seq: uint64(seq), Count: 1, Origin: 1})
				}
				select {
				case <-done[who]:
				case <-time.After(10 * time.Second):
					t.Errorf("reader %d: burst %d not answered", who, round)
					return
				}
			}
		}(who)
	}
	wg.Wait()
	close(stop)
	<-stopped
	if stale.Load() != 0 {
		t.Fatalf("%d reads answered below the applied count acknowledged before they were issued", stale.Load())
	}
	reads, replies := uint64(len(need)), c.Stats().KindCount(rsm.KindReadReply)
	if replies >= reads {
		t.Fatalf("%d replies for %d reads sent in bursts of %d: none shared a turn", replies, reads, burst)
	}
	t.Logf("%d reads, %d replies, %d writes applied at the ingress", reads, replies, acked.Load())
}
