package synod

import (
	"slices"
	"testing"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/durable"
)

// Restart tests for the durable acceptor and proposer: a kill -9'd process
// must come back bound by its pre-crash promises, votes, decision and
// ballots. A restart is a fresh engine over a fresh durable.Open of the same
// directory.

func openWAL(t *testing.T, dir string) *durable.WAL {
	t.Helper()
	w, err := durable.Open(dir, durable.Options{Sync: durable.SyncOff})
	if err != nil {
		t.Fatalf("durable.Open(%s): %v", dir, err)
	}
	return w
}

// TestRestartKeepsPromiseAndVote: one acceptor of five, whose vote alone
// decides nothing (at three, a vote on its ballot owner's ACCEPT does).
func TestRestartKeepsPromiseAndVote(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir)
	r := rsm.New(consensus.StaticLeader(1), rsm.Config{Store: w})
	env := newFakeEnv(2, 5)
	r.Start(env)
	b := consensus.MakeBallot(4, 1, 5)
	r.Deliver(1, rsm.PrepareMsg{B: b})
	r.Deliver(1, &rsm.AcceptMsg{B: b, Inst: 0, V: "voted"})
	env.drain()
	w.Close()

	r2 := rsm.New(consensus.StaticLeader(1), rsm.Config{Store: openWAL(t, dir)})
	env2 := newFakeEnv(2, 5)
	r2.Start(env2)

	// A lower ballot must be nacked — the pre-crash promise stands.
	low := consensus.MakeBallot(1, 0, 5)
	r2.Deliver(0, rsm.PrepareMsg{B: low})
	out := env2.drain()
	if len(out) != 1 {
		t.Fatalf("replies = %v", out)
	}
	if n, ok := out[0].msg.(rsm.NackMsg); !ok || n.Promised != b {
		t.Fatalf("reply = %+v, want nack at %v", out[0].msg, b)
	}

	// A higher prepare must learn of the pre-crash vote, so the new
	// leader is forced to re-propose "voted".
	high := consensus.MakeBallot(9, 0, 5)
	r2.Deliver(0, rsm.PrepareMsg{B: high})
	out = env2.drain()
	if len(out) != 1 {
		t.Fatalf("replies = %v", out)
	}
	p, ok := out[0].msg.(rsm.PromiseMsg)
	if !ok || !slices.Equal(p.Entries, []rsm.PromEntry{{Inst: 0}, {Inst: 0, AccB: b, AccV: "voted"}}) {
		t.Fatalf("promise = %+v, want pre-crash vote (%v, voted)", out[0].msg, b)
	}
}

func TestRestartKeepsDecision(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir)
	r := rsm.New(consensus.StaticLeader(1), rsm.Config{Store: w})
	env := newFakeEnv(2, 3)
	r.Start(env)
	r.Deliver(1, &rsm.DecideMsg{Inst: 0, V: "final"})
	if r.FirstGap() != 1 {
		t.Fatalf("first gap %d after a decision by value, want 1", r.FirstGap())
	}
	w.Close()

	r2 := rsm.New(consensus.StaticLeader(1), rsm.Config{Store: openWAL(t, dir)})
	env2 := newFakeEnv(2, 3)
	r2.Start(env2)
	if d, ok := r2.Recorder().Get(0); r2.FirstGap() != 1 || !ok || d.Value != "final" {
		t.Fatalf("after restart: first gap %d, Get(0) = %q,%v, want 1 and final,true", r2.FirstGap(), d.Value, ok)
	}
	// And it serves the decision to laggards immediately.
	r2.Deliver(0, rsm.LearnMsg{FirstGap: 0})
	out := env2.drain()
	if len(out) != 1 {
		t.Fatalf("replies = %v", out)
	}
	if d, ok := out[0].msg.(*rsm.DecideMsg); !ok || d.Inst != 0 || d.V != "final" {
		t.Fatalf("reply = %+v, want the decision", out[0].msg)
	}
}

func TestRestartedProposerOutbidsItself(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir)
	r := rsm.New(consensus.StaticLeader(0), rsm.Config{Store: w})
	env := newFakeEnv(0, 3)
	r.Start(env)
	first, ok := prepared(env.drain())
	if !ok {
		t.Fatal("no ballot opened")
	}
	r.Deliver(1, rsm.PromiseMsg{B: first})
	r.Submit("mine") // attaches "mine" to instance 0 at ballot first
	if accepts := acceptsOf(env.drain()); accepts[0] != "mine" {
		t.Fatalf("accepts = %v, want mine at instance 0", accepts)
	}
	w.Close()

	// The restarted proposer must never reuse first: it could attach
	// another value to an instance that already carries mine at first.
	r2 := rsm.New(consensus.StaticLeader(0), rsm.Config{Store: openWAL(t, dir)})
	env2 := newFakeEnv(0, 3)
	r2.Start(env2)
	again, ok := prepared(env2.drain())
	if !ok {
		t.Fatal("restarted proposer opened no ballot")
	}
	if again <= first {
		t.Fatalf("restarted ballot %v does not outbid pre-crash %v", again, first)
	}
}
