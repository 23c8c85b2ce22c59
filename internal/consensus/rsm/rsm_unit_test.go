package rsm

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/node"
	"repro/internal/sim"
)

// sent records one outbound message from the fake environment.
type sent struct {
	to  node.ID
	msg node.Message
}

// fakeEnv is a hand-driven node.Env for unit-testing the leader-change
// logic without a simulator.
type fakeEnv struct {
	id     node.ID
	n      int
	now    sim.Time
	outbox []sent
	timers map[string]time.Duration
	mute   bool // drop outbound messages: allocation tests and benchmarks
}

var _ node.Env = (*fakeEnv)(nil)

func newFakeEnv(id node.ID, n int) *fakeEnv {
	return &fakeEnv{id: id, n: n, timers: make(map[string]time.Duration)}
}

func (e *fakeEnv) ID() node.ID   { return e.id }
func (e *fakeEnv) N() int        { return e.n }
func (e *fakeEnv) Now() sim.Time { return e.now }

func (e *fakeEnv) Send(to node.ID, m node.Message) {
	if e.mute {
		return
	}
	e.outbox = append(e.outbox, sent{to: to, msg: m})
}

func (e *fakeEnv) Broadcast(m node.Message) {
	for to := 0; to < e.n; to++ {
		if node.ID(to) != e.id {
			e.Send(node.ID(to), m)
		}
	}
}

func (e *fakeEnv) SetTimer(key string, d time.Duration) { e.timers[key] = d }
func (e *fakeEnv) StopTimer(key string)                 { delete(e.timers, key) }
func (e *fakeEnv) Logf(format string, args ...any)      { _ = fmt.Sprintf(format, args...) }

func (e *fakeEnv) drain() []sent {
	out := e.outbox
	e.outbox = nil
	return out
}

// acceptsOf extracts the AcceptMsg broadcasts per instance from an outbox.
func acceptsOf(msgs []sent) map[int]consensus.Value {
	out := make(map[int]consensus.Value)
	for _, s := range msgs {
		if a, ok := s.msg.(AcceptMsg); ok {
			out[a.Inst] = a.V
		}
	}
	return out
}

// prepareLeader boots a 3-process leader on a fake env and completes
// phase 1 with the given peer promise.
func prepareLeader(t *testing.T, peerPromise *PromiseMsg) (*Node, *fakeEnv) {
	t.Helper()
	return prepareLeaderCfg(t, peerPromise, Config{})
}

func prepareLeaderCfg(t testing.TB, peerPromise *PromiseMsg, cfg Config) (*Node, *fakeEnv) {
	t.Helper()
	r := New(consensus.StaticLeader(0), cfg)
	env := newFakeEnv(0, 3)
	r.Start(env)
	r.Tick(timerDrive) // starts the prepare
	if !r.prop.preparing {
		t.Fatal("leader did not start preparing")
	}
	ballot := r.prop.ballot
	env.drain()
	if peerPromise != nil {
		p := *peerPromise
		p.B = ballot
		r.Deliver(1, p)
	} else {
		r.Deliver(1, PromiseMsg{B: ballot})
	}
	if !r.prop.prepared {
		t.Fatal("quorum promise did not complete phase 1")
	}
	return r, env
}

func TestNewLeaderReproposesHighestAcceptedValue(t *testing.T) {
	// The peer reports instance 2 accepted at a high ballot; the new
	// leader must re-propose that value, and close gaps 0–1 with no-ops.
	promise := &PromiseMsg{
		Entries: []PromEntry{{Inst: 2, AccB: consensus.MakeBallot(4, 1, 3), AccV: "locked"}},
	}
	r, env := prepareLeader(t, promise)
	accepts := acceptsOf(env.drain())
	if accepts[2] != "locked" {
		t.Fatalf("instance 2 re-proposed %q, want locked value", accepts[2])
	}
	if accepts[0] != consensus.Noop || accepts[1] != consensus.Noop {
		t.Fatalf("gaps not filled with no-ops: %v", accepts)
	}
	if r.pipe.nextInst != 3 {
		t.Fatalf("nextInst = %d, want 3", r.pipe.nextInst)
	}
}

func TestNewLeaderPicksHighestBallotAmongConflicts(t *testing.T) {
	// Self has an accepted entry too (from an older reign); the peer's
	// higher-ballot entry must win.
	r := New(consensus.StaticLeader(0), Config{})
	env := newFakeEnv(0, 3)
	r.Start(env)
	r.log.accept(0, consensus.MakeBallot(1, 0, 3), "mine")
	r.Tick(timerDrive)
	env.drain()
	r.Deliver(1, PromiseMsg{
		B:       r.prop.ballot,
		Entries: []PromEntry{{Inst: 0, AccB: consensus.MakeBallot(7, 1, 3), AccV: "theirs"}},
	})
	accepts := acceptsOf(env.drain())
	if accepts[0] != "theirs" {
		t.Fatalf("instance 0 re-proposed %q, want higher-ballot value", accepts[0])
	}
}

func TestDecidedInstancesNotReproposed(t *testing.T) {
	r := New(consensus.StaticLeader(0), Config{})
	env := newFakeEnv(0, 3)
	r.Start(env)
	r.learn(0, "done")
	r.Tick(timerDrive)
	env.drain()
	r.Deliver(1, PromiseMsg{
		B:       r.prop.ballot,
		Entries: []PromEntry{{Inst: 0, AccB: consensus.MakeBallot(2, 1, 3), AccV: "stale"}},
	})
	accepts := acceptsOf(env.drain())
	if _, ok := accepts[0]; ok {
		t.Fatalf("decided instance re-proposed: %v", accepts)
	}
}

func TestHigherPrepareAbdicates(t *testing.T) {
	r, env := prepareLeader(t, nil)
	env.drain()
	high := r.prop.ballot + 100
	r.Deliver(2, PrepareMsg{B: high})
	if r.prop.prepared {
		t.Fatal("leader did not abdicate on higher prepare")
	}
	out := env.drain()
	if len(out) != 1 {
		t.Fatalf("replies = %v", out)
	}
	if p, ok := out[0].msg.(PromiseMsg); !ok || p.B != high {
		t.Fatalf("reply = %+v, want promise at %v", out[0].msg, high)
	}
}

func TestNackAbdicatesAndOutbidsLater(t *testing.T) {
	r, env := prepareLeader(t, nil)
	first := r.prop.ballot
	r.Deliver(2, NackMsg{B: first, Promised: first + 50})
	if r.prop.prepared || r.prop.preparing {
		t.Fatal("leader did not reset on nack")
	}
	env.drain()
	// Force the next prepare attempt (backoff makes the drive tick skip
	// until the window passes; jump the clock).
	env.now = env.now.Add(time.Hour)
	r.Tick(timerDrive)
	if !r.prop.preparing {
		t.Fatal("no re-prepare after nack")
	}
	if r.prop.ballot <= first+50 {
		t.Fatalf("new ballot %v does not outbid nack's %v", r.prop.ballot, first+50)
	}
}

func TestAcceptorAnswersDecidedInstanceWithDecide(t *testing.T) {
	r := New(consensus.StaticLeader(1), Config{})
	env := newFakeEnv(2, 3)
	r.Start(env)
	r.learn(3, "v")
	env.drain()
	r.Deliver(1, AcceptMsg{B: 10, Inst: 3, V: "other"})
	out := env.drain()
	if len(out) != 1 {
		t.Fatalf("replies = %v", out)
	}
	d, ok := out[0].msg.(DecideMsg)
	if !ok || d.Inst != 3 || d.V != "v" {
		t.Fatalf("reply = %+v, want decide of the learned value", out[0].msg)
	}
}

func TestLearnBatchIsBounded(t *testing.T) {
	r := New(consensus.StaticLeader(0), Config{})
	env := newFakeEnv(0, 3)
	r.Start(env)
	for i := 0; i < learnBatch+40; i++ {
		r.learn(i, consensus.Value(fmt.Sprintf("v%d", i)))
	}
	env.drain()
	r.Deliver(2, LearnMsg{FirstGap: 0})
	out := env.drain()
	if len(out) != learnBatch {
		t.Fatalf("learn reply sent %d decides, want %d", len(out), learnBatch)
	}
}

func TestFollowerDropsRequests(t *testing.T) {
	r := New(consensus.StaticLeader(1), Config{}) // someone else leads
	env := newFakeEnv(0, 3)
	r.Start(env)
	r.Deliver(2, RequestMsg{V: "cmd"})
	if r.pipe.open != 0 {
		t.Fatal("follower proposed a request")
	}
}

func TestLostProposalCommandsAreReproposed(t *testing.T) {
	// A leader's proposal loses its instance to a competing ballot while
	// Omega keeps nominating this node: the commands it carried must not
	// sit in the queue marked as riding in an instance forever.
	r, env := prepareLeader(t, nil)
	r.Submit("stranded?")
	r.Submit("me too")
	out := acceptsOf(env.drain())
	if out[0] != "stranded?" || len(out) != 1 {
		t.Fatalf("accepts after two submits = %v, want the first command alone in instance 0", out)
	}
	// A competing leader got instance 0 decided with its own value.
	r.Deliver(1, DecideMsg{Inst: 0, V: "theirs"})
	if got := r.bat.tail - r.bat.head; got != 2 {
		t.Fatalf("%d commands pending after losing instance 0, want both kept", got)
	}
	// Re-proposed, together, in the next instance — at the latest on the
	// drive tick.
	r.Tick(timerDrive)
	want := encodeBatch([]consensus.Value{"stranded?", "me too"})
	if out = acceptsOf(env.drain()); out[1] != want {
		t.Fatalf("accepts after the loss = %q, want both commands re-proposed in instance 1", out)
	}
	r.Deliver(1, AcceptedMsg{B: r.prop.ballot, Inst: 1})
	for k, cmd := range []consensus.Value{"stranded?", "me too"} {
		if d, ok := r.Recorder().GetCmd(1, k); !ok || d.Value != cmd {
			t.Fatalf("command %d of instance 1 = %+v,%v, want %q decided", k, d, ok, cmd)
		}
	}
	if r.bat.head != r.bat.tail || r.pipe.open != 0 {
		t.Fatalf("pending holds %d commands with %d instances open, want drained", r.bat.tail-r.bat.head, r.pipe.open)
	}

	// The same through a step-down: nacked out of leadership, nominated
	// again, and phase 1 finds the competitor's value in the instance.
	r.Submit("across a step-down")
	env.drain()
	theirs := r.prop.ballot + 1
	r.Deliver(1, NackMsg{B: r.prop.ballot, Promised: theirs})
	r.Tick(timerDrive) // re-prepares: Omega still says us
	r.Deliver(1, PromiseMsg{B: r.prop.ballot, Entries: []PromEntry{{Inst: 2, AccB: theirs, AccV: "theirs again"}}})
	r.Tick(timerDrive) // flushes the partial batch behind the reopened instance
	if out = acceptsOf(env.drain()); out[2] != "theirs again" || out[3] != "across a step-down" {
		t.Fatalf("accepts after re-election = %q, want their value adopted in 2 and ours re-proposed in 3", out)
	}
	r.Deliver(2, AcceptedMsg{B: r.prop.ballot, Inst: 2})
	r.Deliver(2, AcceptedMsg{B: r.prop.ballot, Inst: 3})
	if d, ok := r.Recorder().Get(3); !ok || d.Value != "across a step-down" || r.bat.head != r.bat.tail {
		t.Fatalf("instance 3 = %+v,%v with %d pending", d, ok, r.bat.tail-r.bat.head)
	}
}

func TestLearnAdvancesGapAcrossHoles(t *testing.T) {
	r := New(consensus.StaticLeader(0), Config{})
	env := newFakeEnv(0, 3)
	r.Start(env)
	r.learn(0, "a")
	r.learn(2, "c")
	if r.FirstGap() != 1 {
		t.Fatalf("FirstGap = %d, want 1", r.FirstGap())
	}
	if r.HighestDecided() != 2 {
		t.Fatalf("HighestDecided = %d", r.HighestDecided())
	}
	r.learn(1, "b")
	if r.FirstGap() != 3 {
		t.Fatalf("FirstGap = %d after hole closed, want 3", r.FirstGap())
	}
}
