package rsm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/node"
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
		out[i] = &RequestMsg{V: consensus.Value(fmt.Sprint(tag, i))}
	}
	return out
}

// broadcastsOf returns the distinct messages of type M in an outbox, in
// order, having checked each went to both peers of a 3-process leader.
func broadcastsOf[M node.Message](t *testing.T, msgs []sent) []M {
	t.Helper()
	return broadcastsAmong[M](t, 3, msgs)
}

// broadcastsAmong is broadcastsOf for a leader p0 of n.
func broadcastsAmong[M node.Message](t *testing.T, n int, msgs []sent) []M {
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
	var peers []node.ID
	for p := 1; p < n; p++ {
		peers = append(peers, node.ID(p))
	}
	for i := range out {
		if !slices.Equal(to[i], peers) {
			t.Fatalf("%T #%d went to %v, want a broadcast to %v", out[i], i, to[i], peers)
		}
	}
	return out
}

// decidesOf returns the DECIDEs in an outbox, each with its addressee: since
// the announcement is addressed (pipeline.go, announceCommit) a DECIDE goes
// to the replica whose command was decided, not to everyone.
func decidesOf(msgs []sent) (out []sent) {
	for _, s := range msgs {
		if _, ok := s.msg.(*DecideMsg); ok {
			out = append(out, s)
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
	accepts := broadcastsOf[*AcceptMsg](t, env.drain())
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
	accepts = broadcastsOf[*AcceptMsg](t, env.drain())
	if len(accepts) != 1 || len(DecodeBatch(accepts[0].V)) != 1 {
		t.Fatalf("turns of one proposed %+v, want the first request alone", accepts)
	}
	r.Deliver(1, &AcceptedMsg{B: r.prop.ballot, Inst: accepts[0].Inst})
	accepts = broadcastsOf[*AcceptMsg](t, env.drain())
	if len(accepts) != 1 || len(DecodeBatch(accepts[0].V)) != k-1 {
		t.Fatalf("after the first quorum: %+v, want one instance with the other %d", accepts, k-1)
	}
}

func TestQuorumAndRequestsInOneTurnNeedNoDecide(t *testing.T) {
	const n = 5
	inFlight := func() (*Node, *fakeEnv, *AcceptMsg) {
		// Of five, p1's vote alone decides nothing, so its command is owed to
		// it (pairDecides); p2's vote completes each quorum below.
		r, env := prepareLeaderOf(t, n, Config{})
		env.drain()
		r.Deliver(1, &RequestMsg{V: "first"})
		accepts := broadcastsAmong[*AcceptMsg](t, n, env.drain())
		if len(accepts) != 1 {
			t.Fatalf("setup: %+v", accepts)
		}
		return r, env, accepts[0]
	}

	r, env, first := inFlight()
	withTurns(r)
	r.Deliver(2, &AcceptedMsg{B: r.prop.ballot, Inst: first.Inst})
	turn(r, 1, append([]node.Message{&AcceptedMsg{B: r.prop.ballot, Inst: first.Inst}}, requests(3, "next-")...)...)
	out := env.drain()
	accepts := broadcastsAmong[*AcceptMsg](t, n, out)
	if len(accepts) != 1 || len(DecodeBatch(accepts[0].V)) != 3 || accepts[0].CommitUpTo != first.Inst+1 {
		t.Fatalf("proposed %+v, want one instance of 3 commands carrying commit index %d", accepts, first.Inst+1)
	}
	if d := decidesOf(out); len(d) != 0 {
		t.Fatalf("%d DECIDEs left although an ACCEPT carried the index: %+v", len(d), d)
	}

	// A quorum alone in its turn still announces, by DECIDE, once — to p1,
	// whose command it decided. The others forwarded nothing and have nothing
	// waiting: they hear on the next ACCEPT (re-budgeted with the addressed
	// announcement; before it this DECIDE went to every follower).
	r, env, first = inFlight()
	withTurns(r)
	r.Deliver(2, &AcceptedMsg{B: r.prop.ballot, Inst: first.Inst})
	turn(r, 1, &AcceptedMsg{B: r.prop.ballot, Inst: first.Inst})
	want := &DecideMsg{B: r.prop.ballot, Inst: first.Inst + 1}
	if d := decidesOf(env.drain()); len(d) != 1 || !d[0].is(1, want) {
		t.Fatalf("DECIDEs %+v, want %+v alone", d, want)
	}

	// Turns of one: the quorum announces before the requests arrive, and
	// the ACCEPT that follows carries the same index again, to everyone.
	r, env, first = inFlight()
	r.Deliver(2, &AcceptedMsg{B: r.prop.ballot, Inst: first.Inst})
	r.Deliver(1, &AcceptedMsg{B: r.prop.ballot, Inst: first.Inst})
	for _, m := range requests(3, "next-") {
		r.Deliver(1, m)
	}
	out = env.drain()
	if d := decidesOf(out); len(d) != 1 || d[0].to != 1 {
		t.Fatalf("turns of one sent DECIDEs %+v, want one, to the origin", d)
	}
	if a := broadcastsAmong[*AcceptMsg](t, n, out); len(a) != 1 || len(DecodeBatch(a[0].V)) != 1 {
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
	if a := broadcastsOf[*AcceptMsg](t, env.drain()); len(a) != 1 {
		t.Fatalf("Submit between turns proposed %+v, want its command at once", a)
	}
	r.Deliver(1, LearnMsg{}) // any event: a turn is open
	r.Submit("inside-1")
	r.Submit("inside-2")
	if got := env.drain(); len(got) != 0 {
		t.Fatalf("Submit inside a turn sent %+v before its end", got)
	}
	r.Deliver(1, &AcceptedMsg{B: r.prop.ballot, Inst: 0})
	r.Tick(node.TurnEnd)
	if a := broadcastsOf[*AcceptMsg](t, env.drain()); len(a) != 1 || len(DecodeBatch(a[0].V)) != 2 {
		t.Fatalf("the turn proposed %+v, want both commands in one instance", a)
	}
}

// leaseLeader returns a prepared leader of three on a runtime with turns,
// holding a 300 ms lease granted at the fake clock's instant zero, with k
// commands applied; its outbox is empty.
func leaseLeader(t testing.TB, k int) (*Node, *fakeEnv) {
	t.Helper()
	return leaseLeaderOf(t, 3, k)
}

// leaseLeaderOf is leaseLeader for a leader p0 of n, whose lease and
// commands a quorum's worth of followers, p1 upwards, acked.
func leaseLeaderOf(t testing.TB, n, k int) (*Node, *fakeEnv) {
	t.Helper()
	r, env := prepareLeaderOf(t, n, Config{Lease: 300 * time.Millisecond})
	for i := 0; i < max(k, 1); i++ {
		r.Submit(consensus.Value(fmt.Sprint("w", i)))
		for p := 1; p < consensus.Majority(n); p++ {
			r.Deliver(node.ID(p), &AcceptedMsg{B: r.prop.ballot, Inst: i, LeaseSeq: 1})
		}
	}
	if !r.holdsLease(env.now) || r.app.count != max(k, 1) {
		t.Fatalf("setup: lease held %v, applied %d", r.holdsLease(env.now), r.app.count)
	}
	withTurns(r)
	env.drain()
	return r, env
}

// readRequests returns k single reads numbered from seq upwards, all of
// one origin.
func readRequests(origin node.ID, seq uint64, k int) []node.Message {
	out := make([]node.Message, k)
	for i := range out {
		out[i] = &ReadReqMsg{Seq: seq + uint64(i), Count: 1, Origin: origin}
	}
	return out
}

// repliesOf returns the READ-REPLYs in an outbox, keyed by where they went.
func repliesOf(msgs []sent) map[node.ID][]ReadReplyMsg {
	out := map[node.ID][]ReadReplyMsg{}
	for _, s := range msgs {
		if m, ok := s.msg.(*ReadReplyMsg); ok {
			out[s.to] = append(out[s.to], *m)
		}
	}
	return out
}

// answersAt delivers a reply to a fresh replica with the given id and
// returns what its OnReadReply hook was called with.
func answersAt(id node.ID, m ReadReplyMsg) (got []ReadReplyMsg) {
	o := New(consensus.StaticLeader(0), Config{})
	o.OnReadReply(func(a ReadReplyMsg) { got = append(got, a) })
	o.Start(newFakeEnv(id, 3))
	o.Deliver(0, &m)
	return got
}

func TestReadsOfATurnShareOneReplyPerOrigin(t *testing.T) {
	const k = 21
	r, env := leaseLeader(t, 3)
	for _, m := range readRequests(1, 100, k) {
		r.Deliver(1, m)
	}
	r.Deliver(1, &ReadReqMsg{Seq: 7, Count: 64, Origin: 2}) // forwarded by 1 for 2: a chunked client
	r.Deliver(2, &ReadReqMsg{Seq: 5, Count: 0, Origin: 2})  // numbered downwards, and a zero count means one
	if got := env.drain(); len(got) != 0 {
		t.Fatalf("%d messages left before the end of the turn: %+v", len(got), got)
	}
	r.Tick(node.TurnEnd)
	out := env.drain()
	replies := repliesOf(out)
	if len(out) != 2 || len(replies[1]) != 1 || len(replies[2]) != 1 {
		t.Fatalf("the turn sent %+v, want exactly one reply for each of the two origins", out)
	}
	if got := r.LocalReads(); got != k+64+1 {
		t.Fatalf("local reads = %d, want %d", got, k+64+1)
	}
	answers := answersAt(1, replies[1][0])
	if len(answers) != k {
		t.Fatalf("origin 1's hook fired %d times, want once for each of its %d requests", len(answers), k)
	}
	for i, a := range answers {
		if want := (ReadReplyMsg{Seq: 100 + uint64(i), Count: 1, Index: 3, Local: true}); a != want {
			t.Fatalf("answer %d = %+v, want %+v", i, a, want)
		}
	}
	want := []ReadReplyMsg{{Seq: 7, Count: 64, Index: 3, Local: true}, {Seq: 5, Count: 1, Index: 3, Local: true}}
	if got := answersAt(2, replies[2][0]); !slices.Equal(got, want) {
		t.Fatalf("origin 2 was answered %+v, want %+v", got, want)
	}

	// The next turn starts from nothing: one request, one reply, no tail.
	turn(r, 1, &ReadReqMsg{Seq: 900, Count: 2, Origin: 1})
	if got := env.drain(); len(got) != 1 || !got[0].is(1, &ReadReplyMsg{Seq: 900, Count: 2, Index: 3, Local: true}) {
		t.Fatalf("the turn after sent %+v, want the one request answered alone", got)
	}
}

// TestReadsSeeTheTurnsWrites: the index is sampled at the end of the turn,
// after a quorum that completed anywhere in it has applied — here behind
// the reads.
func TestReadsSeeTheTurnsWrites(t *testing.T) {
	r, env := leaseLeader(t, 2)
	r.Submit("in flight")
	env.drain()
	msgs := append(readRequests(2, 1, 4), &AcceptedMsg{B: r.prop.ballot, Inst: 2})
	turn(r, 2, msgs...)
	reply := repliesOf(env.drain())[2]
	if len(reply) != 1 || reply[0].Index != 3 || !reply[0].Local {
		t.Fatalf("replies %+v, want one at index 3: the write applied in the same turn", reply)
	}
}

// TestLeaseLapsingInATurnSendsItsReadsThroughTheBarrier: what decides is
// the lease at the end of the turn, and reads it no longer covers share
// one round and then one reply, as reads without a lease always have.
func TestLeaseLapsingInATurnSendsItsReadsThroughTheBarrier(t *testing.T) {
	const k = 5
	r, env := leaseLeader(t, 1)
	for _, m := range readRequests(1, 40, k) {
		r.Deliver(1, m)
	}
	env.now = env.now.Add(time.Second) // past the lease, before the turn ends
	r.Tick(node.TurnEnd)
	out := env.drain()
	round := broadcastsOf[LeaseGrantMsg](t, out)
	if len(round) != 1 || round[0].Seq != r.reads.round || len(out) != 2 {
		t.Fatalf("the turn sent %+v, want one round and no reply", out)
	}
	if len(r.reads.waiting) != k || r.LocalReads() != 0 {
		t.Fatalf("%d reads pending, %d served locally; want all %d on the round", len(r.reads.waiting), r.LocalReads(), k)
	}
	turn(r, 1, LeaseAckMsg{B: r.prop.ballot, Seq: round[0].Seq})
	replies := repliesOf(env.drain())[1]
	if len(replies) != 1 || replies[0].Local || replies[0].Index != r.app.count {
		t.Fatalf("replies %+v, want one fallback answer at index %d", replies, r.app.count)
	}
	if got := answersAt(1, replies[0]); len(got) != k || got[k-1].Seq != 40+k-1 || r.FallbackReads() != k {
		t.Fatalf("the round answered %+v (%d counted), want all %d requests", got, r.FallbackReads(), k)
	}
}

// TestAbdicationInATurnDropsItsReads: reads wait for the end of the turn,
// and a NACK behind them in the same turn ends this leadership first —
// they must not be answered from a lease this node no longer stands
// behind, not even later.
func TestAbdicationInATurnDropsItsReads(t *testing.T) {
	r, env := leaseLeader(t, 1)
	msgs := append(readRequests(1, 1, 6), NackMsg{B: r.prop.ballot, Promised: r.prop.ballot + 1})
	turn(r, 1, msgs...)
	if got := env.drain(); len(got) != 0 {
		t.Fatalf("a deposed leader sent %+v", got)
	}
	if len(r.reads.waiting) != 0 || r.LocalReads() != 0 {
		t.Fatalf("reads kept across an abdication: %d waiting, %d served", len(r.reads.waiting), r.LocalReads())
	}
}

// TestReadOutsideATurnIsAnsweredAlone: on a runtime without turns every
// request is answered at once by a reply with no tail — the message, and
// so the bytes (wire.TestRSMReadReplyWireFrozen), of before reads had
// turns.
func TestReadOutsideATurnIsAnsweredAlone(t *testing.T) {
	r, env := leaseLeader(t, 2)
	r.turns = false // the bare fakeEnv again: node.World's view
	for i, m := range readRequests(1, 10, 3) {
		r.Deliver(1, m)
		want := &ReadReplyMsg{Seq: 10 + uint64(i), Count: 1, Index: 2, Local: true}
		if got := env.drain(); len(got) != 1 || !got[0].is(1, want) {
			t.Fatalf("request %d was answered %+v, want %+v at once", i, got, want)
		}
	}
	// Its own reads never touch the network, with or without turns.
	var own []ReadReplyMsg
	r.OnReadReply(func(m ReadReplyMsg) { own = append(own, m) })
	r.Read(77, 5)
	if want := []ReadReplyMsg{{Seq: 77, Count: 5, Index: 2, Local: true}}; !slices.Equal(own, want) || len(env.drain()) != 0 {
		t.Fatalf("own read answered %+v, want %+v and nothing sent", own, want)
	}
}

// TestReadReqWithForeignOriginIsDropped: Origin comes off the wire and the
// reply is addressed to it; an id outside the cluster indexed the live
// networks' tables and killed the process.
func TestReadReqWithForeignOriginIsDropped(t *testing.T) {
	r, env := leaseLeader(t, 1)
	turn(r, 1, &ReadReqMsg{Seq: 1, Count: 1, Origin: 7}, &ReadReqMsg{Seq: 2, Count: 1, Origin: -1}, &ReadReqMsg{Seq: 3, Count: 1, Origin: 3})
	if got := env.drain(); len(got) != 0 || r.LocalReads() != 0 {
		t.Fatalf("requests from outside the cluster were answered: %+v", got)
	}
	f := New(consensus.StaticLeader(1), Config{})
	fenv := newFakeEnv(0, 3)
	f.Start(fenv)
	f.Deliver(7, &ReadReqMsg{Seq: 1, Count: 1, Origin: 7})
	if got := fenv.drain(); len(got) != 0 {
		t.Fatalf("a follower forwarded %+v", got)
	}
}

// TestReadDuringPrepareIsQueuedNotDropped: a read reaching a leader-elect
// while its phase 1 is in flight rides the round the moment the ballot
// stands instead of costing its client a timeout.
func TestReadDuringPrepareIsQueuedNotDropped(t *testing.T) {
	r := New(consensus.StaticLeader(0), Config{})
	env := newFakeEnv(0, 3)
	r.Start(env)
	r.Tick(timerDrive)
	if !r.prop.preparing || r.prop.prepared {
		t.Fatal("leader-elect is not in phase 1")
	}
	env.drain()
	r.Deliver(2, &ReadReqMsg{Seq: 9, Count: 4, Origin: 2})
	if len(r.reads.waiting) != 1 || r.reads.round != 0 || len(env.drain()) != 0 {
		t.Fatalf("%d reads queued during phase 1 (round %d), want the one kept and nothing sent yet", len(r.reads.waiting), r.reads.round)
	}
	r.Deliver(1, PromiseMsg{B: r.prop.ballot})
	if grants := broadcastsOf[LeaseGrantMsg](t, env.drain()); len(grants) != 1 || grants[0].Seq != r.reads.round {
		t.Fatalf("grants once prepared = %+v, want the read's round", grants)
	}
	r.Deliver(1, LeaseAckMsg{B: r.prop.ballot, Seq: r.reads.round})
	replies := repliesOf(env.drain())[2]
	if want := (ReadReplyMsg{Seq: 9, Count: 4, Index: 0}); len(replies) != 1 || replies[0] != want {
		t.Fatalf("replies %+v, want %+v", replies, want)
	}
}

// TestReadFromItsOwnReplyHook: a closed-loop client on the leader issues
// its next read from the hook, in the middle of the serve.
func TestReadFromItsOwnReplyHook(t *testing.T) {
	r, _ := leaseLeader(t, 1)
	var seen []uint64
	r.OnReadReply(func(m ReadReplyMsg) {
		seen = append(seen, m.Seq)
		if m.Seq < 5 {
			r.Read(m.Seq+1, 1)
		}
	})
	r.Deliver(1, LearnMsg{}) // any event: a turn is open
	r.Read(1, 1)
	r.Read(100, 1)
	r.Tick(node.TurnEnd)
	if want := []uint64{1, 2, 3, 4, 5, 100}; !slices.Equal(seen, want) {
		t.Fatalf("answered %v, want %v", seen, want)
	}
}

// TestLeaseReadTurnAllocatesPerReplyNotPerRead: a turn of lease reads
// allocates nothing — each reply's box is cut from a slab and its packed
// tail from the read path's arena — whether sixteen reads share one reply
// or three origins each get a reply with a tail.
func TestLeaseReadTurnAllocatesPerReplyNotPerRead(t *testing.T) {
	for _, c := range []struct {
		name    string
		n       int
		origins []node.ID
	}{
		{"one origin", 3, []node.ID{1}},
		{"three origins", 5, []node.ID{1, 2, 3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, env := leaseLeaderOf(t, c.n, 1)
			var reqs []node.Message
			for _, o := range c.origins {
				reqs = append(reqs, readRequests(o, 1000*uint64(o), 16/len(c.origins))...)
			}
			turn(r, 1, reqs...)
			replies := repliesOf(env.drain())
			if len(replies) != len(c.origins) {
				t.Fatalf("replies went to %d origins, want %d", len(replies), len(c.origins))
			}
			for _, o := range c.origins {
				if rs := replies[o]; len(rs) != 1 || rs[0].More == "" {
					t.Fatalf("origin %d was answered %+v, want one reply with a packed tail", o, rs)
				}
			}
			env.mute = true
			before := r.LocalReads()
			if got := testing.AllocsPerRun(200, func() { turn(r, 1, reqs...) }); got != 0 {
				t.Fatalf("a turn of %d lease reads allocates %.1f objects, want 0", len(reqs), got)
			}
			if got := r.LocalReads() - before; got < uint64(len(reqs)*200) {
				t.Fatalf("only %d reads served", got)
			}
		})
	}
}

// BenchmarkLeaseReadTurn is one turn of 16 single reads at a lease-holding
// leader: ns and allocs per turn, a sixteenth of each per read.
func BenchmarkLeaseReadTurn(b *testing.B) {
	r, env := leaseLeader(b, 1)
	env.mute = true
	reqs := readRequests(1, 1000, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		turn(r, 1, reqs...)
	}
}

// FuzzReadSpans: a reply's tail is off the wire. Unpacking never panics and
// yields nothing unless the whole tail unpacks; packing what was unpacked
// and unpacking again is the identity, wherever the numbers go.
func FuzzReadSpans(f *testing.F) {
	f.Add(uint64(41), uint32(16), "")
	f.Add(uint64(41), uint32(1), "\x01\x01\x01\x01")
	f.Add(^uint64(0), uint32(1), "\x02\x03")                                    // wraps past zero
	f.Add(uint64(5), uint32(1), "\xfe\xff\xff\xff\xff\xff\xff\xff\xff\x01\x01") // downwards by two
	f.Add(uint64(5), uint32(1), "\x01")                                         // no count
	f.Add(uint64(5), uint32(1), "\x01\x80\x80\x80\x80\x10")                     // count past 32 bits
	f.Add(uint64(5), uint32(1), "\x01\x01\x80")                                 // torn varint
	f.Fuzz(func(t *testing.T, seq uint64, count uint32, more string) {
		m := ReadReplyMsg{Seq: seq, Count: count, Index: 3, Local: true, More: more}
		var reqs []ReadReqMsg
		ok := m.eachRead(func(seq uint64, count uint32) { reqs = append(reqs, ReadReqMsg{Seq: seq, Count: count}) })
		if !ok {
			if len(reqs) != 0 {
				t.Fatalf("a malformed tail %q yielded %+v", more, reqs)
			}
			return
		}
		if reqs[0] != (ReadReqMsg{Seq: seq, Count: count}) {
			t.Fatalf("first request %+v, want the reply's own fields", reqs[0])
		}
		var packed []byte
		for i, q := range reqs[1:] {
			packed = appendSpan(packed, reqs[i].Seq, q)
		}
		m.More = string(packed)
		i := 0
		if !m.eachRead(func(seq uint64, count uint32) {
			if i >= len(reqs) || reqs[i] != (ReadReqMsg{Seq: seq, Count: count}) {
				t.Fatalf("request %d came back as (%d, %d), want %+v", i, seq, count, reqs)
			}
			i++
		}) || i != len(reqs) {
			t.Fatalf("repacked tail % x of %+v did not unpack", packed, reqs)
		}
	})
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
	// One follower of five: its votes decide nothing, so the records on disk
	// are its votes alone.
	b := consensus.MakeBallot(3, 1, 5)
	votes := func() []node.Message {
		return []node.Message{
			&AcceptMsg{B: b, Inst: 0, V: "a"}, &AcceptMsg{B: b, Inst: 1, V: "b"}, &AcceptMsg{B: b, Inst: 2, V: "c"},
		}
	}
	follower := func(dir string) (*Node, *fakeEnv) {
		r := New(consensus.StaticLeader(1), Config{Store: openWAL(t, dir)})
		env := newFakeEnv(2, 5)
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

func TestQuorumSeqMatchesSorting(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 2000; round++ {
		n := 1 + rng.Intn(7)
		r := &Node{n: n, peers: make([]follower, n)}
		acked := make([]uint64, n)
		for f := range r.peers {
			acked[f] = uint64(rng.Intn(4)) // few values: ties and never-acked zeros
			r.peers[f].acked = acked[f]
		}
		sorted := slices.Clone(acked)
		slices.Sort(sorted)
		slices.Reverse(sorted)
		if got, want := r.quorumSeq(), sorted[consensus.Majority(n)-1]; got != want {
			t.Fatalf("acked %v: got %d, want %d, the majority-th largest", acked, got, want)
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
			r.bat.add(consensus.Value(fmt.Sprint("c", next)), env.now, r.curCtx, node.None)
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
			env.now = env.now.Add(time.Duration(rng.Intn(3)) * retryTimeout / 16)
		}
		leader := node.ID(1 + rng.Intn(8)/7) // mostly 1, sometimes 2
		if leaderless = leaderless != (rng.Intn(60) == 0); leaderless {
			leader = node.None // for a stretch: commands pile up unforwarded, and are applied so
		}
		var want []sent
		for i := r.bat.head; i < r.bat.tail && leader != node.None; i++ {
			p := r.bat.at(i)
			if p.lastSentTo == leader && env.now.Sub(p.lastSentAt) <= retryTimeout {
				skipped++
				continue
			}
			want = append(want, sent{leader, &RequestMsg{V: p.v}})
		}
		if leader == r.bat.fwdTo && env.now.Sub(r.bat.fwdOldest) <= retryTimeout {
			short++ // the summary stands: this call may skip the forwarded prefix
		}
		r.forwardPending(leader)
		if got := env.drain(); !slices.EqualFunc(got, want, func(g, w sent) bool { return g.is(w.to, w.msg) }) {
			t.Fatalf("step %d: forwarded %+v, the full scan forwards %v", step, got, want)
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
