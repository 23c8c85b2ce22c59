package rsm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/node"
	"repro/internal/sim"
)

// Tests for the turn layer on a fake runtime with turns: the fakeEnv,
// driven the way a live node loop drives an automaton — Start, the signal,
// then turns of events each closed by the signal. The same scenarios on
// the bare fakeEnv (no signal ever: each event is a turn of one) pin what
// the engine did before turns, which is what node.World still gets.

// withTurns switches a node built on a bare fakeEnv to a runtime with
// turns: from the first signal on, events wait for the next one.
func withTurns(r *Node) { r.Tick(node.TurnEnd) }

// turn delivers the events of one turn and signals its end.
func turn(r *Node, from node.ID, msgs ...node.Message) {
	for _, m := range msgs {
		r.Deliver(from, m)
	}
	r.Tick(node.TurnEnd)
}

func requests(k int, tag string) []node.Message {
	out := make([]node.Message, k)
	for i := range out {
		out[i] = RequestMsg{V: consensus.Value(fmt.Sprint(tag, i))}
	}
	return out
}

// broadcastsOf returns the distinct messages of type M in an outbox, in
// order, having checked each went to both peers of a 3-process leader.
func broadcastsOf[M node.Message](t *testing.T, msgs []sent) []M {
	t.Helper()
	var out []M
	to := map[int][]node.ID{}
	for _, s := range msgs {
		m, ok := s.msg.(M)
		if !ok {
			continue
		}
		if len(out) == 0 || any(out[len(out)-1]) != any(m) {
			out = append(out, m)
		}
		to[len(out)-1] = append(to[len(out)-1], s.to)
	}
	for i := range out {
		if !slices.Equal(to[i], []node.ID{1, 2}) {
			t.Fatalf("%T #%d went to %v, want a broadcast to 1 and 2", out[i], i, to[i])
		}
	}
	return out
}

func TestBurstOfRequestsIsOneInstance(t *testing.T) {
	const k = 10
	r, env := prepareLeader(t, nil)
	withTurns(r)
	env.drain()
	for _, m := range requests(k, "burst-") {
		r.Deliver(1, m)
	}
	if got := env.drain(); len(got) != 0 {
		t.Fatalf("%d messages left before the end of the turn: %+v", len(got), got)
	}
	r.Tick(node.TurnEnd)
	accepts := broadcastsOf[AcceptMsg](t, env.drain())
	if len(accepts) != 1 || len(DecodeBatch(accepts[0].V)) != k {
		t.Fatalf("a turn of %d requests proposed %+v, want one instance carrying all %d", k, accepts, k)
	}

	// Without turns the first request leaves alone the moment it arrives
	// and the other nine wait a round trip for the next instance.
	r, env = prepareLeader(t, nil)
	env.drain()
	for _, m := range requests(k, "burst-") {
		r.Deliver(1, m)
	}
	accepts = broadcastsOf[AcceptMsg](t, env.drain())
	if len(accepts) != 1 || len(DecodeBatch(accepts[0].V)) != 1 {
		t.Fatalf("turns of one proposed %+v, want the first request alone", accepts)
	}
	r.Deliver(1, AcceptedMsg{B: r.prop.ballot, Inst: accepts[0].Inst})
	accepts = broadcastsOf[AcceptMsg](t, env.drain())
	if len(accepts) != 1 || len(DecodeBatch(accepts[0].V)) != k-1 {
		t.Fatalf("after the first quorum: %+v, want one instance with the other %d", accepts, k-1)
	}
}

func TestQuorumAndRequestsInOneTurnNeedNoDecide(t *testing.T) {
	inFlight := func() (*Node, *fakeEnv, AcceptMsg) {
		r, env := prepareLeader(t, nil)
		env.drain()
		r.Deliver(1, RequestMsg{V: "first"})
		accepts := broadcastsOf[AcceptMsg](t, env.drain())
		if len(accepts) != 1 {
			t.Fatalf("setup: %+v", accepts)
		}
		return r, env, accepts[0]
	}

	r, env, first := inFlight()
	withTurns(r)
	turn(r, 1, append([]node.Message{AcceptedMsg{B: r.prop.ballot, Inst: first.Inst}}, requests(3, "next-")...)...)
	out := env.drain()
	accepts := broadcastsOf[AcceptMsg](t, out)
	if len(accepts) != 1 || len(DecodeBatch(accepts[0].V)) != 3 || accepts[0].CommitUpTo != first.Inst+1 {
		t.Fatalf("proposed %+v, want one instance of 3 commands carrying commit index %d", accepts, first.Inst+1)
	}
	if d := broadcastsOf[DecideMsg](t, out); len(d) != 0 {
		t.Fatalf("%d DECIDE broadcasts left although an ACCEPT carried the index: %+v", len(d), d)
	}

	// A quorum alone in its turn still announces, by DECIDE, once.
	r, env, first = inFlight()
	withTurns(r)
	turn(r, 1, AcceptedMsg{B: r.prop.ballot, Inst: first.Inst})
	out = env.drain()
	if d := broadcastsOf[DecideMsg](t, out); len(d) != 1 || d[0].Inst != first.Inst+1 || d[0].B != r.prop.ballot {
		t.Fatalf("DECIDEs %+v, want one for commit index %d", d, first.Inst+1)
	}

	// Turns of one: the quorum announces before the requests arrive, and
	// the ACCEPT that follows carries the same index again.
	r, env, first = inFlight()
	r.Deliver(1, AcceptedMsg{B: r.prop.ballot, Inst: first.Inst})
	for _, m := range requests(3, "next-") {
		r.Deliver(1, m)
	}
	out = env.drain()
	if d := broadcastsOf[DecideMsg](t, out); len(d) != 1 {
		t.Fatalf("turns of one sent %d DECIDE broadcasts, want 1", len(d))
	}
	if a := broadcastsOf[AcceptMsg](t, out); len(a) != 1 || len(DecodeBatch(a[0].V)) != 1 {
		t.Fatalf("turns of one proposed %+v, want the next request alone", a)
	}
}

// TestSubmitOutsideATurnActsAtOnce: on a runtime with turns, a Submit or
// Read that no turn encloses has no signal coming and must not wait for
// one; inside a turn it waits like any event.
func TestSubmitOutsideATurnActsAtOnce(t *testing.T) {
	r, env := prepareLeader(t, nil)
	withTurns(r)
	env.drain()
	r.Submit("outside")
	if a := broadcastsOf[AcceptMsg](t, env.drain()); len(a) != 1 {
		t.Fatalf("Submit between turns proposed %+v, want its command at once", a)
	}
	r.Deliver(1, LearnMsg{}) // any event: a turn is open
	r.Submit("inside-1")
	r.Submit("inside-2")
	if got := env.drain(); len(got) != 0 {
		t.Fatalf("Submit inside a turn sent %+v before its end", got)
	}
	r.Deliver(1, AcceptedMsg{B: r.prop.ballot, Inst: 0})
	r.Tick(node.TurnEnd)
	if a := broadcastsOf[AcceptMsg](t, env.drain()); len(a) != 1 || len(DecodeBatch(a[0].V)) != 2 {
		t.Fatalf("the turn proposed %+v, want both commands in one instance", a)
	}
}

// votesOnDisk reopens dir beside the live WAL and counts recovered votes:
// what a kill -9 at this instant would leave.
func votesOnDisk(t *testing.T, dir string) int {
	t.Helper()
	w := openWAL(t, dir)
	defer w.Close()
	if st := w.State(); st != nil {
		return len(st.Accepted)
	}
	return 0
}

func TestVotesAreWrittenOncePerTurn(t *testing.T) {
	b := consensus.MakeBallot(3, 1, 3)
	votes := func() []node.Message {
		return []node.Message{
			AcceptMsg{B: b, Inst: 0, V: "a"}, AcceptMsg{B: b, Inst: 1, V: "b"}, AcceptMsg{B: b, Inst: 2, V: "c"},
		}
	}
	follower := func(dir string) (*Node, *fakeEnv) {
		r := New(consensus.StaticLeader(1), Config{Store: openWAL(t, dir)})
		env := newFakeEnv(2, 3)
		r.Start(env)
		return r, env
	}

	dir := t.TempDir()
	r, env := follower(dir)
	withTurns(r)
	for _, m := range votes() {
		r.Deliver(1, m)
	}
	if n := votesOnDisk(t, dir); n != 0 {
		t.Fatalf("%d votes on disk in mid-turn, want them buffered", n)
	}
	r.Tick(node.TurnEnd)
	if n := votesOnDisk(t, dir); n != 3 {
		t.Fatalf("%d votes on disk after the turn, want 3", n)
	}
	if got := len(env.drain()); got != 3 {
		t.Fatalf("%d ACCEPTEDs, want 3", got)
	}

	// Turns of one: nothing holds the ACCEPTED back, so each vote is on
	// disk by the time its handler returns.
	dir = t.TempDir()
	r, _ = follower(dir)
	for i, m := range votes() {
		r.Deliver(1, m)
		if n := votesOnDisk(t, dir); n != i+1 {
			t.Fatalf("%d votes on disk after %d deliveries without turns", n, i+1)
		}
	}
}

func TestLeaseAckAllocatesNothing(t *testing.T) {
	r, env := prepareLeaderCfg(t, nil, Config{Lease: 300 * time.Millisecond})
	env.mute = true
	r.Submit("carries grant 1")
	if r.lease.seq != 1 {
		t.Fatalf("lease seq = %d, want the first grant issued", r.lease.seq)
	}
	if got := testing.AllocsPerRun(100, func() { r.onLeaseAck(1, r.prop.ballot, 1) }); got != 0 {
		t.Fatalf("a lease ack allocates %.0f times", got)
	}
	if !r.LeaseHeld() {
		t.Fatal("one follower's ack is a quorum of 3 with our own vote: lease not held")
	}
}

func TestNthGrantMatchesSorting(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 2000; round++ {
		n := 2 + rng.Intn(6)
		r := &Node{n: n, me: node.ID(rng.Intn(n))}
		r.lease.granted = make([]sim.Time, n)
		var others []sim.Time
		for f := range r.lease.granted {
			r.lease.granted[f] = sim.Time(rng.Intn(4)) // few values: ties and never-granted zeros
			if node.ID(f) != r.me && r.lease.granted[f] > 0 {
				others = append(others, r.lease.granted[f])
			}
		}
		slices.Sort(others)
		slices.Reverse(others)
		for need := 1; need < n; need++ {
			got, ok := r.nthGrant(need)
			if ok != (len(others) >= need) || (ok && got != others[need-1]) {
				t.Fatalf("grants %v me %d need %d: got %v %v, sorted others %v", r.lease.granted, r.me, need, got, ok, others)
			}
		}
	}
}

// TestForwardPendingMatchesFullScan drives a follower's queue through
// random submits, applies, leader changes, spells as leader and clock
// jumps, and checks every forwardPending against the full walk over the
// per-command stamps it replaced: same requests, same order.
func TestForwardPendingMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := New(consensus.StaticLeader(1), Config{})
	env := newFakeEnv(0, 3)
	r.Start(env)
	next, sentTotal, skipped, short, leaderless := 0, 0, 0, 0, false
	for step := 0; step < 6000; step++ {
		switch op := rng.Intn(10); {
		case op < 3:
			r.bat.add(consensus.Value(fmt.Sprint("c", next)), env.now, r.curCtx)
			next++
		case op < 6 && r.bat.tail-r.bat.head > rng.Intn(8): // applied somewhere: any queued command, mostly the head
			i := r.bat.head
			if rng.Intn(4) == 0 {
				i += rng.Intn(r.bat.tail - r.bat.head)
			}
			r.bat.retire(r.bat.at(i).v)
		case op == 6 && rng.Intn(8) == 0 && r.bat.tail > r.bat.next: // a spell as leader stamps commands its own way
			r.bat.take(1+rng.Intn(r.bat.tail-r.bat.next), r.me, env.now, r.pipe.alloc())
			r.bat.unassign()
		case op == 7:
			env.now = env.now.Add(time.Duration(rng.Intn(3)) * r.cfg.RetryTimeout / 16)
		}
		leader := node.ID(1 + rng.Intn(8)/7) // mostly 1, sometimes 2
		if leaderless = leaderless != (rng.Intn(60) == 0); leaderless {
			leader = node.None // for a stretch: commands pile up unforwarded, and are applied so
		}
		var want []sent
		for i := r.bat.head; i < r.bat.tail && leader != node.None; i++ {
			p := r.bat.at(i)
			if p.lastSentTo == leader && env.now.Sub(p.lastSentAt) <= r.cfg.RetryTimeout {
				skipped++
				continue
			}
			want = append(want, sent{leader, RequestMsg{V: p.v}})
		}
		if leader == r.bat.fwdTo && env.now.Sub(r.bat.fwdOldest) <= r.cfg.RetryTimeout {
			short++ // the summary stands: this call may skip the forwarded prefix
		}
		r.forwardPending(leader)
		if got := env.drain(); !slices.Equal(got, want) {
			t.Fatalf("step %d: forwarded %v, the full scan forwards %v", step, got, want)
		}
		sentTotal += len(want)
	}
	if sentTotal < 1000 || skipped < 1000 || short < 1000 {
		t.Fatalf("the walk exercised %d sends, %d skips and %d short walks: too few to mean anything", sentTotal, skipped, short)
	}
}

// BenchmarkSubmitWithBacklog is a follower's Submit with 40 commands
// outstanding, as the open-loop sims have them: the cost is the new
// command's forward, not a walk over the forty.
func BenchmarkSubmitWithBacklog(b *testing.B) {
	r := New(consensus.StaticLeader(1), Config{})
	env := newFakeEnv(0, 3)
	env.mute = true
	r.Start(env)
	for i := 0; i < 40; i++ {
		r.Submit("x")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Submit("x")
		r.bat.retire("x") // the oldest is applied: the backlog stays at 40
	}
}
