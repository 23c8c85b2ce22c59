package rsm

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// The hand-over tests: what a leader change costs once the detector has
// spoken. The first is a seeded property over whole simulated clusters;
// the rest pin the two mechanisms behind it — the edge (rsm.go,
// followOmega) and the hand-over buffer (batch.go, hold) — one event
// at a time.

// handoverWorld is the repository benchmark's sim_failover world, rebuilt
// here from its frozen settings (bench/spec.go: n=5, 1 ms timely links,
// η = 50 ms with rebuffs, batches of 16 in a window of 8, a 5 ms drive
// tick): an open-loop client at follower 2 submits a command every 500 µs
// and re-submits, every 100 ms, whatever it has not seen applied there;
// process 0, the first leader, is crashed 2 s in.
type handoverWorld struct {
	crashAt  sim.Time
	due      []sim.Time // per command: when the client's schedule submitted it
	done     []sim.Time // when the ingress first applied it; 0: never
	submits  []int      // the submission and its retries
	applies  []int      // how often the ingress applied it
	lastFlip sim.Time   // the last Omega output change at a survivor
	gap      time.Duration
	stranded string // at the end: a survivor below a forgetting horizon
}

const (
	handoverIngress = node.ID(2)
	handoverPeriod  = 500 * time.Microsecond
	handoverRetry   = 100 * time.Millisecond
)

func runHandoverWorld(seed int64) (*handoverWorld, error) {
	w, err := node.NewWorld(node.WorldConfig{N: 5, Seed: seed, DefaultLink: network.Timely(ms)})
	if err != nil {
		return nil, err
	}
	h := &handoverWorld{crashAt: sim.At(2 * time.Second)}
	var dets []*core.Detector
	var nodes []*Node
	for i := 0; i < 5; i++ {
		det := core.New(core.WithEta(50*ms), core.WithRebuff())
		log := New(det, Config{BatchMax: 16, Window: 8, DriveInterval: 5 * ms})
		dets, nodes = append(dets, det), append(nodes, log)
		w.SetAutomaton(node.ID(i), node.Compose(det, log))
	}
	k, in := w.Kernel, nodes[handoverIngress]
	probed, lastApply, undone := false, sim.Time(0), 0
	in.OnApply(func(_, _ int, v consensus.Value) {
		if v == "probe" {
			probed = true
		}
		var seq int
		if _, err := fmt.Sscanf(string(v), "cmd-%d", &seq); err != nil {
			return
		}
		now := k.Now()
		if h.applies[seq]++; h.done[seq] == 0 {
			h.done[seq] = now
			undone--
		}
		if now >= h.crashAt {
			h.gap = max(h.gap, now.Sub(max(lastApply, h.crashAt)))
		}
		lastApply = now
	})
	w.Start()
	w.RunFor(20 * ms)
	in.Submit("probe")
	w.RunUntil(k.Now().Add(time.Second), func() bool { return probed })
	if !probed {
		return nil, fmt.Errorf("seed %d: the probe command was not applied within 1 s", seed)
	}

	start, end := k.Now().Add(ms), sim.At(6*time.Second)
	total := int(end.Sub(start) / handoverPeriod)
	undone = total
	h.due, h.done = make([]sim.Time, total), make([]sim.Time, total)
	h.submits, h.applies = make([]int, total), make([]int, total)
	var submit func(seq int)
	submit = func(seq int) {
		if h.done[seq] != 0 {
			return
		}
		h.submits[seq]++
		in.Submit(consensus.Value(fmt.Sprintf("cmd-%d", seq)))
		k.Schedule(handoverRetry, func() { submit(seq) })
	}
	for seq := range h.due {
		seq := seq
		h.due[seq] = start.Add(time.Duration(seq) * handoverPeriod)
		k.ScheduleAt(h.due[seq], func() { submit(seq) })
	}
	w.CrashAt(0, h.crashAt)
	// Until every command is done, not until the last one is: the links are
	// not FIFO, and a REQ due a millisecond earlier can reach the leader
	// after the last and ride a later instance. A second past the end of the
	// schedule is the failure ("never applied").
	w.RunUntil(end.Add(time.Second), func() bool { return k.Now() >= end && undone == 0 })
	for i, d := range dets {
		if cs := d.History().Changes(); w.Alive(node.ID(i)) && len(cs) > 0 {
			h.lastFlip = max(h.lastFlip, cs[len(cs)-1].At)
		}
	}
	h.stranded = stranded(w, nodes)
	return h, nil
}

// check returns what the world violates, and its one-line summary: the
// p99 latency from the due time and the longest apply gap from the crash
// on — the two numbers sim_failover reports per world.
func (h *handoverWorld) check() (violations []string, summary string) {
	lats := make([]time.Duration, 0, len(h.due))
	late, worst := 0, time.Duration(0)
	for seq, due := range h.due {
		if h.done[seq] == 0 {
			violations = append(violations, fmt.Sprintf("cmd-%d was never applied", seq))
			continue
		}
		lats = append(lats, h.done[seq].Sub(due))
		// (a) nobody waits out a retry: service is back one PREPARE and one
		// ACCEPT round trip after the last survivor's Omega has moved.
		if due >= h.crashAt {
			if over := h.done[seq].Sub(max(due, h.lastFlip)); over > 10*ms {
				late++
				worst = max(worst, over)
			}
		}
		// (c) at-least-once, and no more than that: nothing multiplies a
		// command on its way through the hand-over. One copy more is the
		// engine's documented due for a command the crash caught in flight:
		// the old leader's ACCEPT outlives it and the successor re-proposes
		// the value next to the forwarder's own re-forwards.
		allowed := h.submits[seq]
		if due < h.crashAt {
			allowed++
		}
		if h.applies[seq] > allowed {
			violations = append(violations, fmt.Sprintf("(c) cmd-%d applied %d times, submitted %d times", seq, h.applies[seq], h.submits[seq]))
		}
	}
	if h.stranded != "" {
		violations = append(violations, h.stranded)
	}
	if late > 0 {
		violations = append(violations, fmt.Sprintf("(a) %d commands due after the crash completed more than 10ms past max(due, last flip), the worst by %v", late, worst))
	}
	// (b) the outage is the detector's, plus the hand-over.
	flip := h.lastFlip.Sub(h.crashAt)
	if h.gap > flip+5*ms {
		violations = append(violations, fmt.Sprintf("(b) longest apply gap %v, the last Omega flip came %v after the crash", h.gap, flip))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 := lats[len(lats)*99/100]
	return violations, fmt.Sprintf("p99 %7.3f ms  gap %7.3f ms  last flip at crash+%7.3f ms",
		float64(p99)/1e6, float64(h.gap)/1e6, float64(flip)/1e6)
}

func TestHandoverProperty(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	type result struct {
		violations []string
		summary    string
	}
	results := sweep.Map(sweep.New(0), seeds, func(i int) result {
		h, err := runHandoverWorld(int64(1 + i))
		if err != nil {
			return result{violations: []string{err.Error()}}
		}
		v, s := h.check()
		return result{v, s}
	})
	for i, r := range results {
		t.Logf("seed %2d: %s", 1+i, r.summary)
		if len(r.violations) > 0 {
			t.Errorf("seed %d:\n  %s", 1+i, strings.Join(r.violations, "\n  "))
		}
	}
}

// fakeOmega is a detector reduced to its output, composed ahead of the
// engine as every runtime composes the real one: a nominate message moves
// the output in the event that delivers it, and nothing else does.
type fakeOmega struct{ leader node.ID }

type nominate node.ID

func (nominate) KindID() obs.Kind { return obs.Intern("TEST-NOMINATE") }

func (o *fakeOmega) Leader() node.ID { return o.leader }
func (o *fakeOmega) Start(node.Env)  {}
func (o *fakeOmega) Tick(string)     {}
func (o *fakeOmega) Deliver(_ node.ID, m node.Message) {
	if l, ok := m.(nominate); ok {
		o.leader = node.ID(l)
	}
}

// composed boots process 0 of three behind a fake Omega that names first.
func composed(t *testing.T, first node.ID, cfg Config) (node.Automaton, *Node, *fakeEnv) {
	t.Helper()
	o := &fakeOmega{leader: first}
	r, env := New(o, cfg), newFakeEnv(0, 3)
	a := node.Compose(o, r)
	a.Start(env)
	return a, r, env
}

func preparesOf(msgs []sent) (out []PrepareMsg) {
	for _, s := range msgs {
		if m, ok := s.msg.(PrepareMsg); ok && s.to == 1 {
			out = append(out, m)
		}
	}
	return out
}

func requestsOf(msgs []sent) (n int) {
	for _, s := range msgs {
		if _, ok := s.msg.(*RequestMsg); ok {
			n++
		}
	}
	return n
}

// TestLeadershipEdgeStartsPrepareInTheSameEvent: the Omega flip and the
// PREPARE broadcast leave in one Deliver, no drive tick between them; the
// first output at boot is such an edge; and the deposed side steps down,
// lease included, in the event Omega moves away.
func TestLeadershipEdgeStartsPrepareInTheSameEvent(t *testing.T) {
	a, r, env := composed(t, 1, Config{})
	if out := env.drain(); len(out) != 0 || r.prop.preparing {
		t.Fatalf("a follower sent %v at boot", out)
	}
	r.Submit("pending")
	if n := requestsOf(env.drain()); n != 1 {
		t.Fatalf("%d REQs to the leader, want the one command forwarded", n)
	}
	a.Deliver(2, nominate(2))
	if n := requestsOf(env.drain()); n != 1 || r.prop.preparing {
		t.Fatalf("%d REQs in the event Omega moved to p2, want the pending command re-forwarded there", n)
	}
	a.Deliver(1, nominate(0))
	if out := preparesOf(env.drain()); len(out) != 1 || !r.prop.preparing {
		t.Fatalf("PREPAREs in the event that named this process: %v, want one", out)
	}
	a.Deliver(1, PromiseMsg{B: r.prop.ballot})
	if out := acceptsOf(env.drain()); out[0] != "pending" {
		t.Fatalf("accepts once prepared = %q, want the pending command", out)
	}

	t.Run("boot", func(t *testing.T) {
		_, r, env := composed(t, 0, Config{})
		if out := preparesOf(env.drain()); len(out) != 1 || !r.prop.preparing {
			t.Fatalf("PREPAREs in Start: %v, want one", out)
		}
	})
	t.Run("deposed", func(t *testing.T) {
		a, r, env := composed(t, 0, Config{Lease: 300 * ms})
		a.Deliver(1, PromiseMsg{B: r.prop.ballot})
		r.Submit("w")
		a.Deliver(1, &AcceptedMsg{B: r.prop.ballot, Inst: 0, LeaseSeq: 1})
		if !r.IsLeader() || !r.LeaseHeld() {
			t.Fatalf("setup: leader %v, lease held %v", r.IsLeader(), r.LeaseHeld())
		}
		env.drain()
		a.Deliver(1, nominate(1))
		if r.prop.prepared || r.LeaseHeld() {
			t.Fatalf("in the event Omega moved away: prepared %v, lease held %v", r.prop.prepared, r.LeaseHeld())
		}
	})
}

// TestPrepareBackoffStartsAtRetryTimeoutAndResets: the first PREPARE of a
// candidacy is given one RetryTimeout, consecutive failures double it, and
// a ballot that stood — or an abdication — ends the candidacy, so the next
// one starts from RetryTimeout again. (It used to start at two, and the
// k-th term of a replica waited 2ᵏ.)
func TestPrepareBackoffStartsAtRetryTimeoutAndResets(t *testing.T) {
	a, r, env := composed(t, 0, Config{})
	// waits returns, in ms, how long each of the next k PREPAREs went
	// unanswered before the drive tick sent another.
	waits := func(k int) (out []int) {
		env.drain()
		last := env.now
		for len(out) < k {
			env.now = env.now.Add(ms)
			a.Tick(timerDrive)
			if len(preparesOf(env.drain())) > 0 {
				out = append(out, int(env.now.Sub(last)/ms))
				last = env.now
			}
		}
		return out
	}
	if got := fmt.Sprint(waits(3)); got != "[100 200 400]" {
		t.Fatalf("retries of the first candidacy after %s ms, want [100 200 400]", got)
	}
	a.Deliver(1, PromiseMsg{B: r.prop.ballot}) // the term stands
	a.Deliver(1, nominate(1))                  // and ends
	a.Deliver(1, nominate(0))
	if got := fmt.Sprint(waits(2)); got != "[100 200]" {
		t.Fatalf("retries after a successful term and a re-election after %s ms, want [100 200]", got)
	}
	a.Deliver(1, NackMsg{B: r.prop.ballot, Promised: r.prop.ballot + 3}) // abdication
	a.Tick(timerDrive)
	if got := fmt.Sprint(waits(1)); got != "[100]" {
		t.Fatalf("retry after an abdication after %s ms, want [100]", got)
	}
}

// TestLeaseDeferredPrepareStartsAtGrantExpiry: a leader-elect deferred by
// a standing grant re-arms the drive timer for the instant the grant runs
// out, and prepares then — not up to a drive interval later.
func TestLeaseDeferredPrepareStartsAtGrantExpiry(t *testing.T) {
	a, r, env := composed(t, 1, Config{Lease: 300 * ms})
	b := consensus.NoBallot.Next(1, 3)
	a.Deliver(1, PrepareMsg{B: b})
	a.Deliver(1, LeaseGrantMsg{B: b, Seq: 1}) // granted until 300 ms
	env.now = env.now.Add(250 * ms)
	env.drain()
	a.Deliver(2, nominate(0)) // p1 is suspected with 50 ms of its lease left
	if r.prop.preparing || len(preparesOf(env.drain())) != 0 {
		t.Fatal("prepared under a standing grant to the previous leader")
	}
	if d := env.timers[timerDrive]; d != r.cfg.DriveInterval {
		t.Fatalf("drive timer %v with 50 ms to wait, want the drive interval", d)
	}
	env.now = env.now.Add(38 * ms)
	a.Tick(timerDrive)
	if d := env.timers[timerDrive]; d != 12*ms || r.prop.preparing {
		t.Fatalf("drive timer %v with 12 ms of the grant left (preparing %v), want 12ms", d, r.prop.preparing)
	}
	env.now = env.now.Add(12 * ms)
	a.Tick(timerDrive)
	if out := preparesOf(env.drain()); len(out) != 1 || env.timers[timerDrive] != r.cfg.DriveInterval {
		t.Fatalf("PREPAREs at the grant's expiry: %v (drive timer %v), want one", out, env.timers[timerDrive])
	}
}

// TestDeferredPrepareIsAnsweredAtGrantExpiry: the acceptor's half of the
// same instant. Grants end a link delay apart, so the PREPARE of a
// successor whose own grant has just ended finds the next acceptor's still
// standing: it is kept, and promised when that grant ends — the successor
// does not sit out a RetryTimeout for having been punctual.
func TestDeferredPrepareIsAnsweredAtGrantExpiry(t *testing.T) {
	a, r, env := composed(t, 1, Config{Lease: 300 * ms})
	b := consensus.NoBallot.Next(1, 3)
	a.Deliver(1, PrepareMsg{B: b})
	a.Deliver(1, LeaseGrantMsg{B: b, Seq: 1}) // granted until 300 ms
	env.now = env.now.Add(299 * ms)
	a.Tick(timerDrive) // the drive has been ticking: the next is a whole interval off
	env.drain()
	a.Deliver(2, PrepareMsg{B: b.Next(2, 3)})
	if out := env.drain(); len(out) != 0 || env.timers[timerDrive] != ms {
		t.Fatalf("a PREPARE under a standing grant: sent %v, drive timer %v; want silence and a drive in 1ms", out, env.timers[timerDrive])
	}
	env.now = env.now.Add(ms)
	a.Tick(timerDrive)
	want := sent{to: 2, msg: PromiseMsg{B: b.Next(2, 3), Entries: []PromEntry{{Inst: 0}}}} // its decided prefix: empty
	if out := env.drain(); len(out) != 1 || fmt.Sprint(out[0]) != fmt.Sprint(want) || r.lease.deferred != consensus.NoBallot {
		t.Fatalf("at the grant's expiry: sent %v, want the deferred PREPARE promised: %v", out, want)
	}
}

// TestLeaseFailoverCostsNoRetryTimer: with both halves, a lease failover
// is the lease plus a round trip on every seed. (Successor punctual,
// acceptors silent: one seed in six paid a RetryTimeout on top.)
func TestLeaseFailoverCostsNoRetryTimer(t *testing.T) {
	const lease = 300 * ms
	for seed := int64(1); seed <= 24; seed++ {
		c := newClusterCfg(t, 3, seed, network.Timely(ms), Config{Lease: lease, DriveInterval: 5 * ms})
		c.world.Start()
		c.world.RunFor(500 * ms)
		for i := 0; i < 50; i++ {
			c.nodes[0].Submit("x") // grants ride these ACCEPTs up to the crash
			c.world.RunFor(ms)
		}
		crash := c.world.Kernel.Now()
		c.world.Crash(0)
		c.world.RunUntil(crash.Add(time.Second), func() bool { return c.nodes[1].IsLeader() || c.nodes[2].IsLeader() })
		if took := c.world.Kernel.Now().Sub(crash); took > lease+10*ms {
			t.Errorf("seed %d: a survivor's ballot stood %v after the crash, want the %v lease and a round trip", seed, took, lease)
		}
	}
}

// TestReadAtSuccessorBeforeItsOmegaFlipsIsAnswered: a follower whose Omega
// has already moved forwards its client's read to the successor, which
// has not heard yet. The read waits for the edge and rides the round the
// new ballot opens; it is not dropped for the client to time out on.
func TestReadAtSuccessorBeforeItsOmegaFlipsIsAnswered(t *testing.T) {
	a, r, env := composed(t, 1, Config{})
	a.Deliver(2, &ReadReqMsg{Seq: 9, Count: 4, Origin: 2})
	if out := env.drain(); len(out) != 0 || len(r.held) != 1 {
		t.Fatalf("a read forwarded to a non-leader: sent %v, %d held; want it held and never forwarded on", out, len(r.held))
	}
	a.Deliver(2, nominate(0))
	if len(r.reads.waiting) != 1 || len(r.held) != 0 || !r.prop.preparing {
		t.Fatalf("at the edge: %d reads pending, %d held, preparing %v", len(r.reads.waiting), len(r.held), r.prop.preparing)
	}
	env.drain()
	a.Deliver(1, PromiseMsg{B: r.prop.ballot})
	if grants := broadcastsOf[LeaseGrantMsg](t, env.drain()); len(grants) != 1 || grants[0].Seq != r.reads.round {
		t.Fatalf("grants once prepared = %+v, want the read's round", grants)
	}
	a.Deliver(1, LeaseAckMsg{B: r.prop.ballot, Seq: r.reads.round})
	replies := repliesOf(env.drain())[2]
	if want := (ReadReplyMsg{Seq: 9, Count: 4, Index: 0}); len(replies) != 1 || replies[0] != want {
		t.Fatalf("replies %+v, want %+v", replies, want)
	}
	// An origin's own read still goes to the leader it believes in.
	a.Deliver(1, nominate(1))
	r.Read(1, 1)
	if out := env.drain(); len(out) != 1 || out[0].to != 1 || len(r.held) != 0 {
		t.Fatalf("own read at a follower: sent %v, %d held", out, len(r.held))
	}
}

// TestHandoverBufferIsBoundedAndExpires: ten times the cap of REQs and
// READ-REQs at a replica Omega does not name leave the cap held, cost no
// allocation past it, propose nothing and send nothing — and one
// RetryTimeout later they are gone, whoever Omega names then.
func TestHandoverBufferIsBoundedAndExpires(t *testing.T) {
	a, r, env := composed(t, 1, Config{})
	var write, read node.Message = &RequestMsg{V: "w"}, &ReadReqMsg{Seq: 1, Count: 1, Origin: 2}
	for i := 0; i < 5*maxHeld; i++ {
		a.Deliver(2, write)
		a.Deliver(2, read)
	}
	if len(r.held) != maxHeld || cap(r.held) > 2*maxHeld {
		t.Fatalf("%d requests held in room for %d, cap %d", len(r.held), cap(r.held), maxHeld)
	}
	if got := testing.AllocsPerRun(100, func() { a.Deliver(2, write); a.Deliver(2, read) }); got != 0 {
		t.Fatalf("%.1f allocations per request pair past the cap", got)
	}
	if out := env.drain(); len(out) != 0 || r.pipe.open != 0 || r.bat.tail != 0 {
		t.Fatalf("held requests sent %v, proposed %d, queued %d", out, r.pipe.open, r.bat.tail)
	}
	env.now = env.now.Add(retryTimeout)
	a.Tick(timerDrive)
	if len(r.held) != maxHeld {
		t.Fatalf("%d held at the age of one RetryTimeout, want them kept to the end of it", len(r.held))
	}
	env.now = env.now.Add(ms)
	a.Deliver(2, nominate(0))
	if len(r.held) != 0 || r.bat.tail != 0 || len(r.reads.waiting) != 0 {
		t.Fatalf("past RetryTimeout: %d held, %d queued, %d reads pending; their senders have re-forwarded", len(r.held), r.bat.tail, len(r.reads.waiting))
	}
	if out := env.drain(); len(out) != 2 || len(preparesOf(out)) != 1 {
		t.Fatalf("sent %v, want the new leader's PREPARE broadcast and nothing else", out)
	}
}

// TestMutualNominationDoesNotBounce: two replicas whose Omegas name each
// other, a command submitted at one. What crosses the link in a second is
// the submitter's re-forward, once per RetryTimeout — the holder never
// sends it back, so disagreement costs what it cost before the buffer.
func TestMutualNominationDoesNotBounce(t *testing.T) {
	w, err := node.NewWorld(node.WorldConfig{N: 2, Seed: 7, DefaultLink: network.Timely(ms)})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{DriveInterval: 5 * ms} // a re-forward leaves on the first tick past RetryTimeout: every 105 ms
	nodes := []*Node{New(consensus.StaticLeader(1), cfg), New(consensus.StaticLeader(0), cfg)}
	for i, r := range nodes {
		w.SetAutomaton(node.ID(i), r)
	}
	w.Start()
	nodes[0].Submit("ping-pong?")
	w.RunFor(time.Second + 10*ms)
	if got := w.Stats.KindCount(KindRequest); got != 10 {
		t.Fatalf("%d REQs crossed the link in 1 s, want one per RetryTimeout: 10", got)
	}
	if nodes[0].pipe.open+nodes[1].pipe.open != 0 || nodes[1].bat.tail != 0 {
		t.Fatal("a command held for a leadership that never came was queued or proposed")
	}
}

// TestSelfAddressedRequestIsASubmit: a REQ that follower p2 is handed from
// itself — how a live client enters a command (transport.TCPCluster.Inject)
// — is a Submit there. p2 keeps the command, and forwards it again to the
// successor of a leader that died with the first forward in flight, so
// every survivor applies it. Held like a peer's REQ, it would wait at p2 for
// an Omega edge naming p2, and expire.
func TestSelfAddressedRequestIsASubmit(t *testing.T) {
	w, err := node.NewWorld(node.WorldConfig{N: 3, Seed: 1, DefaultLink: network.Timely(ms)})
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	for i := 0; i < 3; i++ {
		det := core.New(core.WithEta(10*ms), core.WithRebuff())
		nodes = append(nodes, New(det, Config{DriveInterval: 5 * ms}))
		w.SetAutomaton(node.ID(i), node.Compose(det, nodes[i]))
	}
	w.Start()
	const cmd = consensus.Value("entered at p2")
	w.Kernel.ScheduleAt(sim.At(500*ms), func() {
		if !nodes[0].IsLeader() {
			t.Fatal("p0 does not lead at 500 ms")
		}
		p := w.Env(2).(*node.Proc) // a turn of p2's, by hand
		p.Receive(2, &RequestMsg{V: cmd})
		p.EndTurn()
		w.Crash(0)
	})
	w.RunFor(2 * time.Second)
	for _, id := range w.Correct() {
		applied := false
		nodes[id].Recorder().Each(func(d consensus.Decision) { applied = applied || d.Value == cmd })
		if !applied {
			t.Errorf("p%d never applied the command p2 was handed from itself", id)
		}
	}
}
