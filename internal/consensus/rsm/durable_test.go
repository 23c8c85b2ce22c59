package rsm

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/durable"
	"repro/internal/node"
)

// Tests for the durable-store integration: what survives a kill -9 and
// how the restarted automaton re-enters the protocol. "Restart" here is
// the real recovery path — a fresh Node over a fresh durable.Open of the
// same directory — driven on the fakeEnv harness.

func openWAL(t *testing.T, dir string) *durable.WAL {
	t.Helper()
	w, err := durable.Open(dir, durable.Options{Sync: durable.SyncOff})
	if err != nil {
		t.Fatalf("durable.Open(%s): %v", dir, err)
	}
	return w
}

func TestRestartKeepsAcceptorPromise(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir)
	r := New(consensus.StaticLeader(1), Config{Store: w})
	env := newFakeEnv(2, 3)
	r.Start(env)
	high := consensus.MakeBallot(5, 1, 3)
	r.Deliver(1, PrepareMsg{B: high})
	if len(env.drain()) != 1 {
		t.Fatal("no promise sent")
	}
	w.Close()

	// kill -9, restart: the promise must still bind this acceptor.
	r2 := New(consensus.StaticLeader(1), Config{Store: openWAL(t, dir)})
	env2 := newFakeEnv(2, 3)
	r2.Start(env2)
	low := consensus.MakeBallot(2, 0, 3)
	r2.Deliver(0, PrepareMsg{B: low})
	out := env2.drain()
	if len(out) != 1 {
		t.Fatalf("replies = %v", out)
	}
	if n, ok := out[0].msg.(NackMsg); !ok || n.Promised != high {
		t.Fatalf("reply = %+v, want nack at promised %v", out[0].msg, high)
	}
}

// TestRestartKeepsAcceptedVote: one follower of five, whose vote alone
// decides nothing.
func TestRestartKeepsAcceptedVote(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir)
	r := New(consensus.StaticLeader(1), Config{Store: w})
	env := newFakeEnv(2, 5)
	r.Start(env)
	b := consensus.MakeBallot(3, 1, 5)
	r.Deliver(1, &AcceptMsg{B: b, Inst: 0, V: "voted"})
	env.drain()
	w.Close()

	// After restart, a competing prepare must learn of the vote so the
	// new leader re-proposes "voted" — never a different value.
	r2 := New(consensus.StaticLeader(1), Config{Store: openWAL(t, dir)})
	env2 := newFakeEnv(2, 5)
	r2.Start(env2)
	higher := consensus.MakeBallot(7, 0, 5)
	r2.Deliver(0, PrepareMsg{B: higher})
	out := env2.drain()
	if len(out) != 1 {
		t.Fatalf("replies = %v", out)
	}
	p, ok := out[0].msg.(PromiseMsg)
	if !ok || !slices.Equal(p.Entries, []PromEntry{{Inst: 0}, {Inst: 0, AccB: b, AccV: "voted"}}) {
		t.Fatalf("promise = %+v, want an empty decided prefix and the pre-crash vote reported", out[0].msg)
	}
}

// TestReservedBallotIsDropped: a PREPARE or an ACCEPT at the ballot a
// decided slot keeps gets no reply and leaves nothing behind, durable or
// not: a real ballot is promised afterwards, before and after a restart,
// and no vote is reported.
func TestReservedBallotIsDropped(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir)
	r := New(consensus.StaticLeader(1), Config{Store: w})
	env := newFakeEnv(2, 3)
	r.Start(env)
	r.Deliver(1, PrepareMsg{B: decidedB})
	r.Deliver(1, &AcceptMsg{B: decidedB, Inst: 0, V: "x"})
	if out := env.drain(); len(out) != 0 || r.acc.promised != consensus.NoBallot || r.log.end() != 0 {
		t.Fatalf("replies %v, promised %v, window to %d: want none, none, empty", out, r.acc.promised, r.log.end())
	}
	w.Close()

	r2 := New(consensus.StaticLeader(1), Config{Store: openWAL(t, dir)})
	env2 := newFakeEnv(2, 3)
	r2.Start(env2)
	b := consensus.MakeBallot(1, 0, 3)
	r2.Deliver(0, PrepareMsg{B: b})
	out := env2.drain()
	if len(out) != 1 {
		t.Fatalf("replies %+v after a restart, want one promise", out)
	}
	if p, ok := out[0].msg.(PromiseMsg); !ok || !slices.Equal(p.Entries, []PromEntry{{Inst: 0}}) {
		t.Fatalf("reply %+v after a restart, want a promise reporting no vote", out[0].msg)
	}
}

func TestRestartedLeaderOutbidsItsOwnBallot(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir)
	r := New(consensus.StaticLeader(0), Config{Store: w})
	env := newFakeEnv(0, 3)
	r.Start(env)
	r.Tick(timerDrive)
	first := r.prop.ballot
	r.Deliver(1, PromiseMsg{B: first})
	if !r.prop.prepared {
		t.Fatal("phase 1 did not complete")
	}
	r.Submit("v1") // attaches "v1" to an instance at ballot `first`
	w.Close()

	// The restarted proposer must never reuse `first` (it could attach a
	// different value to an instance that already carries v1 at first).
	r2 := New(consensus.StaticLeader(0), Config{Store: openWAL(t, dir)})
	env2 := newFakeEnv(0, 3)
	r2.Start(env2)
	r2.Tick(timerDrive)
	if !r2.prop.preparing {
		t.Fatal("restarted leader did not start preparing")
	}
	if r2.prop.ballot <= first {
		t.Fatalf("restarted ballot %v does not outbid pre-crash ballot %v", r2.prop.ballot, first)
	}
}

func TestRestartRestoresApplicationFromSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	var applied1 []string
	w := openWAL(t, dir)
	r := New(consensus.StaticLeader(1), Config{
		Store:         w,
		SnapshotEvery: 4,
		SnapshotState: func() []byte { return []byte(strings.Join(applied1, ",")) },
	})
	r.OnApply(func(inst, cmd int, v consensus.Value) { applied1 = append(applied1, string(v)) })
	env := newFakeEnv(2, 3)
	r.Start(env)
	for i := 0; i < 10; i++ {
		r.learn(i, consensus.Value(fmt.Sprintf("c%d", i)))
	}
	if r.Applied() != 10 {
		t.Fatalf("applied %d, want 10", r.Applied())
	}
	w.Close()

	// Recovery = RestoreState(snapshot payload) + replay of the decided
	// tail through OnApply. Together they rebuild the exact sequence.
	var restored []string
	var tail []string
	r2 := New(consensus.StaticLeader(1), Config{
		Store:        openWAL(t, dir),
		RestoreState: func(b []byte) { restored = strings.Split(string(b), ",") },
	})
	r2.OnApply(func(inst, cmd int, v consensus.Value) { tail = append(tail, string(v)) })
	env2 := newFakeEnv(2, 3)
	r2.Start(env2)
	if r2.Applied() != 10 {
		t.Fatalf("restarted Applied() = %d, want 10", r2.Applied())
	}
	got := strings.Join(append(restored, tail...), ",")
	want := strings.Join(applied1, ",")
	if got != want {
		t.Fatalf("recovered application sequence %q, want %q", got, want)
	}
	if len(tail) >= 10 {
		t.Fatalf("snapshot absorbed nothing: whole log (%d entries) replayed", len(tail))
	}
}

func TestRestartHoldsLeaseWindowConservatively(t *testing.T) {
	const lease = time.Second
	dir := t.TempDir()
	w := openWAL(t, dir)
	r := New(consensus.StaticLeader(1), Config{Store: w, Lease: lease})
	env := newFakeEnv(2, 3)
	r.Start(env)
	r.learn(0, "x") // any durable state so recovery has something to restore
	w.Close()

	r2 := New(consensus.StaticLeader(2), Config{Store: openWAL(t, dir), Lease: lease})
	env2 := newFakeEnv(2, 3)
	r2.Start(env2)
	env2.drain()

	// A pre-crash grant may still be running: every foreign prepare is
	// deferred silently…
	r2.Deliver(0, PrepareMsg{B: consensus.MakeBallot(9, 0, 3)})
	if out := env2.drain(); len(out) != 0 {
		t.Fatalf("prepare answered during restart hold: %v", out)
	}
	// …our own prepare waits too, and no local read could be served.
	r2.Tick(timerDrive)
	if r2.prop.preparing {
		t.Fatal("own prepare started during restart hold")
	}
	if r2.holdsLease(env2.now) {
		t.Fatal("lease considered held during restart hold")
	}

	// Once a full Lease has passed on the local clock, any pre-crash
	// grant has expired everywhere; the protocol resumes.
	env2.now = env2.now.Add(lease + time.Millisecond)
	r2.Deliver(0, PrepareMsg{B: consensus.MakeBallot(9, 0, 3)})
	out := env2.drain()
	if len(out) != 1 {
		t.Fatalf("prepare after hold expiry got %v, want a promise", out)
	}
	if _, ok := out[0].msg.(PromiseMsg); !ok {
		t.Fatalf("reply = %+v, want promise", out[0].msg)
	}
	r2.Tick(timerDrive)
	if !r2.prop.preparing {
		t.Fatal("own prepare still deferred after hold expiry")
	}
}

func TestRecoveryIsIdempotentAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir)
	r := New(consensus.StaticLeader(1), Config{Store: w, SnapshotEvery: 3})
	env := newFakeEnv(2, 3)
	r.Start(env)
	for i := 0; i < 7; i++ {
		r.learn(i, consensus.Value(fmt.Sprintf("c%d", i)))
	}
	w.Close()

	// Restart twice; the second recovery must see exactly what the
	// first one saw (recovering writes no records of its own beyond
	// what re-running the protocol would).
	for round := 0; round < 2; round++ {
		w2 := openWAL(t, dir)
		r2 := New(consensus.StaticLeader(1), Config{Store: w2})
		env2 := newFakeEnv(2, 3)
		r2.Start(env2)
		if r2.Applied() != 7 {
			t.Fatalf("round %d: Applied() = %d, want 7", round, r2.Applied())
		}
		if got, _ := r2.decision(6); got != "c6" {
			t.Fatalf("round %d: decision(6) = %q, want c6", round, got)
		}
		w2.Close()
	}
}

// TestRecorderStaysDenseAcrossRestore: a replica restored from a snapshot
// records from the snapshot's index on, in instance order, through the
// replay and past it, so its Recorder stays dense and holds every applied
// instance at or above the horizon exactly as decided. That is where they
// are served from: the window holds none of them.
func TestRecorderStaysDenseAcrossRestore(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir)
	r := New(consensus.StaticLeader(1), Config{Store: w, SnapshotEvery: 3})
	r.Start(newFakeEnv(2, 3))
	for i := 0; i < 7; i++ {
		r.learn(i, consensus.Value(fmt.Sprintf("c%d", i)))
	}
	w.Close()

	w2 := openWAL(t, dir)
	defer w2.Close()
	r2 := New(consensus.StaticLeader(1), Config{Store: w2})
	r2.Start(newFakeEnv(2, 3))
	low := r2.MinDone()
	for i := 7; i < 12; i++ {
		r2.learn(i, consensus.Value(fmt.Sprintf("c%d", i)))
	}
	if low != 6 || r2.FirstGap() != 12 || r2.log.live != 12 {
		t.Fatalf("horizon %d, first gap %d, window from %d: want the snapshot's 6, and 12 applied and released", low, r2.FirstGap(), r2.log.live)
	}
	for inst := low - 1; inst <= 12; inst++ {
		want := inst >= low && inst < 12
		v, ok := r2.Recorder().Value(inst)
		if ok != want || ok && v != consensus.Value(fmt.Sprintf("c%d", inst)) {
			t.Fatalf("Recorder().Value(%d) = %q,%v, want %v: the log recorded from the snapshot on is dense", inst, v, ok, want)
		}
		if d, ok := r2.decision(inst); ok != want || d != v {
			t.Fatalf("decision(%d) = %q,%v, want the Recorder's %q", inst, d, ok, v)
		}
	}
}

// flushSpy is a Store that notes which instances' votes a Flush has made
// durable.
type flushSpy struct {
	durable.Store
	pending, flushed []int // votes since the last Flush, and before it
}

func (s *flushSpy) Accept(inst, _ uint64, _ string) { s.pending = append(s.pending, int(inst)) }
func (s *flushSpy) Flush()                          { s.flushed, s.pending = append(s.flushed, s.pending...), s.pending[:0] }

// TestSelfDecidedVoteAppliesAfterItsFlush: a follower of three without a
// lease decides what it votes for on its ballot owner's ACCEPT, but applies
// it only once the Flush that covers its own vote has returned — at the end
// of the turn that cast it, or at once in a turn of one.
func TestSelfDecidedVoteAppliesAfterItsFlush(t *testing.T) {
	b := consensus.MakeBallot(0, 1, 3)
	for _, turns := range []bool{true, false} {
		spy := &flushSpy{Store: durable.Nop}
		r := New(consensus.StaticLeader(1), Config{Store: spy})
		applied := 0
		r.OnApply(func(inst, _ int, _ consensus.Value) {
			applied++
			if !slices.Contains(spy.flushed, inst) {
				t.Errorf("turns=%v: instance %d applied before a Flush covered its vote", turns, inst)
			}
		})
		r.Start(newFakeEnv(2, 3))
		if turns {
			withTurns(r)
		}
		for inst := 0; inst < 3; inst++ {
			r.Deliver(1, &AcceptMsg{B: b, Inst: inst, V: consensus.Value(fmt.Sprint("v", inst))})
		}
		if turns {
			if applied != 0 {
				t.Fatalf("%d applied in mid-turn, want none before its flush", applied)
			}
			r.Tick(node.TurnEnd)
		}
		if applied != 3 || r.FirstGap() != 3 {
			t.Fatalf("turns=%v: applied %d, first gap %d; want every vote decided on its own", turns, applied, r.FirstGap())
		}
	}
}
