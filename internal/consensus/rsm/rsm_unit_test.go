package rsm

import (
	"fmt"
	"reflect"
	"strings"
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

// is reports whether s carries m to the process to. A phase-2 message is a
// box from the sender's slab, so == would compare boxes; is compares what
// they hold.
func (s sent) is(to node.ID, m node.Message) bool {
	return s.to == to && reflect.DeepEqual(s.msg, m)
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
		if a, ok := s.msg.(*AcceptMsg); ok {
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

// prepareLeaderOf boots a leader p0 of n on a fake env and completes phase 1
// with empty promises from p1 upwards, a quorum's worth.
func prepareLeaderOf(t testing.TB, n int, cfg Config) (*Node, *fakeEnv) {
	t.Helper()
	r := New(consensus.StaticLeader(0), cfg)
	env := newFakeEnv(0, n)
	r.Start(env)
	r.Tick(timerDrive)
	for p := 1; p < consensus.Majority(n); p++ {
		r.Deliver(node.ID(p), PromiseMsg{B: r.prop.ballot})
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
	r.Deliver(1, &AcceptMsg{B: 10, Inst: 3, V: "other"})
	out := env.drain()
	if len(out) != 1 {
		t.Fatalf("replies = %v", out)
	}
	d, ok := out[0].msg.(*DecideMsg)
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
	r.Deliver(2, &RequestMsg{V: "cmd"})
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
	// A competing leader got instance 0 decided with its own value. That
	// proves a higher ballot completed phase 1: ours is dead, and a commit
	// index at it would have our voters decide "stranded?" — step down.
	lost := r.prop.ballot
	r.Deliver(1, &DecideMsg{Inst: 0, V: "theirs"})
	if got := r.bat.tail - r.bat.head; got != 2 {
		t.Fatalf("%d commands pending after losing instance 0, want both kept", got)
	}
	if r.prop.prepared {
		t.Fatal("leader kept its ballot after losing an instance to another value")
	}
	for _, m := range env.drain() {
		if d, ok := m.msg.(*DecideMsg); ok {
			t.Fatalf("deposed leader announced %+v", d)
		}
	}
	// Omega still says us: the drive tick re-prepares, and the commands
	// are re-proposed, together, in the next instance at the new ballot.
	r.Tick(timerDrive)
	r.Deliver(1, PromiseMsg{B: r.prop.ballot})
	if !r.prop.prepared || r.prop.ballot <= lost {
		t.Fatalf("ballot %v prepared=%v after the loss, want a fresh one above %v", r.prop.ballot, r.prop.prepared, lost)
	}
	want := encodeBatch(new(node.Arena), []consensus.Value{"stranded?", "me too"})
	if out = acceptsOf(env.drain()); out[1] != want {
		t.Fatalf("accepts after the loss = %q, want both commands re-proposed in instance 1", out)
	}
	r.Deliver(1, &AcceptedMsg{B: r.prop.ballot, Inst: 1})
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
	r.Deliver(2, &AcceptedMsg{B: r.prop.ballot, Inst: 2})
	r.Deliver(2, &AcceptedMsg{B: r.prop.ballot, Inst: 3})
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

// commitStep is one move in a commit-index scenario: something happens to
// the node under test, then its log and what it broadcast are checked.
type commitStep struct {
	// Exactly one of: a message delivered from a peer, a command
	// submitted at the node, a kill -9 and recovery from its WAL, or a
	// drive tick one DriveInterval on.
	from    node.ID
	msg     node.Message
	submit  consensus.Value
	restart bool
	tick    bool
	// decided is the node's log afterwards, by instance; "" is undecided.
	decided []consensus.Value
	// announced lists the value-free DECIDEs the node sent during the step:
	// who was told which commit index. Re-budgeted with the addressed
	// announcement — the parent sent each index to all n−1 at once; now the
	// replica a decided command came from is told at once, alone, and the
	// others by the next ACCEPT or the catch-up on the drive tick.
	announced []told
}

type told struct {
	to   node.ID
	upTo int
}

// TestCommitIndex walks the commit path through its corner cases on a
// hand-driven node: which votes an index decides, in which order it may
// meet the ACCEPTs it covers, what survives a restart and a leader
// change, and when the leader says anything at all. Five processes: at
// three a lone vote would decide on its own (pairDecides).
func TestCommitIndex(t *testing.T) {
	const n = 5
	b1 := consensus.MakeBallot(1, 1, n)  // the leader the followers below hear from
	b0 := consensus.MakeBallot(0, 0, n)  // an older leader's ballot
	b2 := consensus.MakeBallot(5, 0, n)  // a newer leader's
	own := consensus.MakeBallot(0, 0, n) // what prepareLeaderOf's p0 prepares
	accept := func(b consensus.Ballot, inst int, v consensus.Value, commit int) node.Message {
		return &AcceptMsg{B: b, Inst: inst, V: v, CommitUpTo: commit}
	}
	commit := func(b consensus.Ballot, upTo int) node.Message { return &DecideMsg{B: b, Inst: upTo} }
	cases := []struct {
		name   string
		leader bool // the node under test is p0, prepared; otherwise follower p2 of leader p1
		window int  // Config.Window (BatchMax is 1: one command per instance)
		steps  []commitStep
	}{
		{name: "a slot voted at another ballot stays undecided", steps: []commitStep{
			{from: 0, msg: accept(b0, 0, "old", 0), decided: []consensus.Value{""}},
			{from: 1, msg: accept(b1, 1, "new", 0), decided: []consensus.Value{"", ""}},
			{from: 1, msg: commit(b1, 2), decided: []consensus.Value{"", "new"}},
			// Re-accepted at the committing ballot, it is covered.
			{from: 1, msg: accept(b1, 0, "repaired", 0), decided: []consensus.Value{"repaired", "new"}},
		}},
		{name: "an ACCEPT overtaken by its commit decides on arrival", steps: []commitStep{
			{from: 1, msg: commit(b1, 2), decided: []consensus.Value{}},
			{from: 1, msg: accept(b1, 1, "b", 0), decided: []consensus.Value{"", "b"}},
			{from: 1, msg: accept(b1, 0, "a", 0), decided: []consensus.Value{"a", "b"}},
			// An older index arriving late changes nothing.
			{from: 1, msg: commit(b1, 1), decided: []consensus.Value{"a", "b"}},
			{from: 1, msg: accept(b1, 2, "c", 1), decided: []consensus.Value{"a", "b", ""}},
		}},
		{name: "recovered votes are decided by the next commit at their ballot", steps: []commitStep{
			{from: 1, msg: accept(b1, 0, "a", 0), decided: []consensus.Value{""}},
			{from: 1, msg: accept(b1, 1, "b", 0), decided: []consensus.Value{"", ""}},
			{from: 1, msg: commit(b1, 1), decided: []consensus.Value{"a", ""}},
			// The index itself is not durable; the votes and decisions are.
			{restart: true, decided: []consensus.Value{"a", ""}},
			{from: 1, msg: commit(b1, 2), decided: []consensus.Value{"a", "b"}},
		}},
		{name: "a new ballot's lower index un-decides nothing", steps: []commitStep{
			{from: 1, msg: accept(b1, 0, "a", 0), decided: []consensus.Value{""}},
			{from: 1, msg: accept(b1, 1, "b", 0), decided: []consensus.Value{"", ""}},
			{from: 1, msg: accept(b1, 2, "c", 2), decided: []consensus.Value{"a", "b", ""}},
			{from: 0, msg: commit(b2, 1), decided: []consensus.Value{"a", "b", ""}},
			// The old leader's index is now the lower ballot: ignored.
			{from: 1, msg: commit(b1, 3), decided: []consensus.Value{"a", "b", ""}},
			{from: 0, msg: accept(b2, 2, "c", 2), decided: []consensus.Value{"a", "b", ""}},
			{from: 0, msg: commit(b2, 3), decided: []consensus.Value{"a", "b", "c"}},
		}},
		{name: "an out-of-order quorum is announced with the prefix, once, to its origin", leader: true, window: 2, steps: []commitStep{
			{from: 2, msg: &RequestMsg{V: "x"}, decided: []consensus.Value{""}},
			{from: 2, msg: &RequestMsg{V: "y"}, decided: []consensus.Value{"", ""}},
			{from: 1, msg: &AcceptedMsg{B: own, Inst: 1}, decided: []consensus.Value{"", ""}},
			{from: 3, msg: &AcceptedMsg{B: own, Inst: 1}, decided: []consensus.Value{"", "y"}},
			{from: 1, msg: &AcceptedMsg{B: own, Inst: 0}, decided: []consensus.Value{"", "y"}},
			{from: 3, msg: &AcceptedMsg{B: own, Inst: 0}, decided: []consensus.Value{"x", "y"}, announced: []told{{2, 2}}},
			{from: 2, msg: &AcceptedMsg{B: own, Inst: 0}, decided: []consensus.Value{"x", "y"}},
			// The stream has gone quiet: p1, p3 and p4, who forwarded nothing,
			// catch up; p2 is not told the same index again, and a later tick
			// tells nobody.
			{tick: true, decided: []consensus.Value{"x", "y"}, announced: []told{{1, 2}, {3, 2}, {4, 2}}},
			{tick: true, decided: []consensus.Value{"x", "y"}},
		}},
		{name: "a decision that frees the pipeline rides the next ACCEPT", leader: true, window: 1, steps: []commitStep{
			{from: 2, msg: &RequestMsg{V: "x"}, decided: []consensus.Value{""}},
			{from: 1, msg: &RequestMsg{V: "y"}, decided: []consensus.Value{""}}, // Window 1: queued
			// The quorum for 0 launches 1, whose ACCEPT carries index 1 to all.
			{from: 1, msg: &AcceptedMsg{B: own, Inst: 0}, decided: []consensus.Value{""}},
			{from: 3, msg: &AcceptedMsg{B: own, Inst: 0}, decided: []consensus.Value{"x", ""}},
			{from: 2, msg: &AcceptedMsg{B: own, Inst: 1}, decided: []consensus.Value{"x", ""}},
			{from: 3, msg: &AcceptedMsg{B: own, Inst: 1}, decided: []consensus.Value{"x", "y"}, announced: []told{{1, 2}}},
			{tick: true, decided: []consensus.Value{"x", "y"}, announced: []told{{2, 2}, {3, 2}, {4, 2}}},
		}},
		{name: "a command submitted at the leader owes nobody", leader: true, window: 2, steps: []commitStep{
			{submit: "x", decided: []consensus.Value{""}},
			{from: 1, msg: &AcceptedMsg{B: own, Inst: 0}, decided: []consensus.Value{""}},
			{from: 2, msg: &AcceptedMsg{B: own, Inst: 0}, decided: []consensus.Value{"x"}},
			// Nothing until the next ACCEPT, which tells everyone for free...
			{submit: "y", decided: []consensus.Value{"x", ""}},
			{from: 2, msg: &AcceptedMsg{B: own, Inst: 1}, decided: []consensus.Value{"x", ""}},
			{from: 3, msg: &AcceptedMsg{B: own, Inst: 1}, decided: []consensus.Value{"x", "y"}},
			// ...or, none coming, the catch-up.
			{tick: true, decided: []consensus.Value{"x", "y"}, announced: []told{{1, 2}, {2, 2}, {3, 2}, {4, 2}}},
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			boot := func() (*Node, *fakeEnv) {
				// Of five a lone vote decides nothing (pairDecides): what
				// decides here is the commit index alone.
				cfg := Config{Store: openWAL(t, dir), BatchMax: 1, Window: tc.window}
				if tc.leader {
					r, env := prepareLeaderOf(t, n, cfg)
					if r.prop.ballot != own {
						t.Fatalf("leader prepared %v, the script assumes %v", r.prop.ballot, own)
					}
					env.drain()
					return r, env
				}
				r, env := New(consensus.StaticLeader(1), cfg), newFakeEnv(2, n)
				r.Start(env)
				return r, env
			}
			r, env := boot()
			for i, st := range tc.steps {
				switch {
				case st.restart:
					r.cfg.Store.Close()
					r, env = boot()
				case st.msg != nil:
					r.Deliver(st.from, st.msg)
				case st.tick:
					env.now = env.now.Add(r.cfg.DriveInterval)
					r.Tick(timerDrive)
				default:
					r.Submit(st.submit)
				}
				got := make([]consensus.Value, r.log.end())
				for inst := range got {
					got[inst], _ = r.decision(inst)
				}
				if fmt.Sprint(got) != fmt.Sprint(st.decided) {
					t.Fatalf("step %d: log = %q, want %q", i, got, st.decided)
				}
				var announced []told
				carried := -1
				for _, s := range env.drain() {
					switch m := s.msg.(type) {
					case *DecideMsg:
						if m.B != r.prop.ballot || m.V != consensus.NoValue {
							t.Fatalf("step %d: sent %+v, want a value-free index at ballot %v", i, m, r.prop.ballot)
						}
						announced = append(announced, told{s.to, m.Inst})
					case *AcceptMsg:
						carried = m.CommitUpTo
					}
				}
				if fmt.Sprint(announced) != fmt.Sprint(st.announced) {
					t.Fatalf("step %d: announced %v, want %v", i, announced, st.announced)
				}
				if carried >= 0 && carried != r.log.firstGap {
					t.Fatalf("step %d: ACCEPT carried index %d with the prefix at %d", i, carried, r.log.firstGap)
				}
			}
		})
	}
}

// TestRequestDuringPrepareIsQueuedNotDropped: a forwarded command reaching
// a leader-elect while its phase 1 is in flight is proposed the moment the
// ballot stands, not left to the forwarder's 100 ms retry.
func TestRequestDuringPrepareIsQueuedNotDropped(t *testing.T) {
	r := New(consensus.StaticLeader(0), Config{})
	env := newFakeEnv(0, 3)
	r.Start(env)
	r.Tick(timerDrive)
	if !r.prop.preparing || r.prop.prepared {
		t.Fatal("leader-elect is not in phase 1")
	}
	env.drain()
	r.Deliver(2, &RequestMsg{V: "forwarded"})
	if got := r.bat.tail - r.bat.head; got != 1 {
		t.Fatalf("%d commands queued during phase 1, want the forwarded one kept", got)
	}
	r.Deliver(1, PromiseMsg{B: r.prop.ballot})
	if out := acceptsOf(env.drain()); out[0] != "forwarded" {
		t.Fatalf("accepts once prepared = %q, want the forwarded command in instance 0", out)
	}
}

// TestDeposedLeaderAnnouncesNothing: a leader that learns one of its open
// instances was decided with another value must not announce a prefix
// covering it — its followers hold votes for the losing value at its
// ballot — and the same value coming back by value is passed on by index.
func TestDeposedLeaderAnnouncesNothing(t *testing.T) {
	// Of five, p2's command is owed to it: its vote alone decides nothing.
	r, env := prepareLeaderOf(t, 5, Config{BatchMax: 1})
	r.Deliver(2, &RequestMsg{V: "mine"})
	env.drain()
	r.Deliver(1, &DecideMsg{Inst: 0, V: "mine"})
	// Re-budgeted with the addressed announcement: the index goes to p2,
	// where the command came from, not to both followers.
	if out := env.drain(); len(out) != 1 || !out[0].is(2, &DecideMsg{B: r.prop.ballot, Inst: 1}) {
		t.Fatalf("after a by-value repair with our own value: sent %+v, want the index announced to the origin", out)
	}
	r.Deliver(2, &RequestMsg{V: "mine too"})
	env.drain()
	r.Deliver(1, &DecideMsg{Inst: 1, V: "theirs"})
	if out := env.drain(); len(out) != 0 || r.prop.prepared {
		t.Fatalf("after losing instance 1: sent %+v, prepared=%v; want silence and a step-down", out, r.prop.prepared)
	}
}

// TestAcceptOvertakingItsPrepareIsNotANack: the links are not FIFO, and a
// leader that finishes phase 1 with commands queued sends ACCEPTs while
// its PREPARE to a slower acceptor is still in flight. The ACCEPT raises
// that acceptor's promise to the ballot; the PREPARE arriving after it
// must be promised, not refused — a NACK would depose a healthy leader.
// Five processes: at three the vote would decide the instance on arrival.
func TestAcceptOvertakingItsPrepareIsNotANack(t *testing.T) {
	r := New(consensus.StaticLeader(1), Config{})
	env := newFakeEnv(2, 5)
	r.Start(env)
	b := consensus.MakeBallot(0, 1, 5)
	r.Deliver(1, &AcceptMsg{B: b, Inst: 0, V: "early"})
	env.drain()
	r.Deliver(1, PrepareMsg{B: b})
	out := env.drain()
	if len(out) != 1 {
		t.Fatalf("replies = %+v", out)
	}
	p, ok := out[0].msg.(PromiseMsg)
	if !ok || p.B != b || len(p.Entries) != 2 || p.Entries[0] != (PromEntry{}) || p.Entries[1].AccV != "early" {
		t.Fatalf("reply = %+v, want a promise at %v reporting an empty decided prefix and the vote already cast", out[0].msg, b)
	}
	// A genuinely lower ballot is still refused, in either phase.
	r.Deliver(0, PrepareMsg{B: b - 1})
	if n, ok := env.drain()[0].msg.(NackMsg); !ok || n.Promised != b {
		t.Fatalf("lower prepare not nacked at %v", b)
	}
	r.Deliver(0, &AcceptMsg{B: b - 1, Inst: 0, V: "stale"})
	if n, ok := env.drain()[0].msg.(NackMsg); !ok || n.Promised != b {
		t.Fatalf("lower accept not nacked at %v", b)
	}
}

// TestWildInstanceNumbersAreDropped: an instance number comes off the wire
// and sized the window — one ACCEPT, by-value DECIDE or PROMISE entry at
// 1<<28 appended 2²⁸ forty-byte slots and the process was OOM-killed. What
// the window does not reach casts no vote and installs nothing; a commit
// index riding on it still counts, so a replica that really is that far
// behind asks for the decisions in order. The follower is one of five, where
// its votes alone decide nothing.
func TestWildInstanceNumbersAreDropped(t *testing.T) {
	const wild = 1 << 28
	b := consensus.MakeBallot(0, 1, 5)
	f := New(consensus.StaticLeader(1), Config{})
	env := newFakeEnv(0, 5)
	f.Start(env)
	f.Deliver(1, &AcceptMsg{B: b, Inst: 0, V: "v0"})
	f.Deliver(1, &AcceptMsg{B: b, Inst: maxHole - 1, V: "edge"}) // the farthest the window reaches
	if got := env.drain(); len(got) != 2 || len(f.log.slots) != maxHole {
		t.Fatalf("%d replies and %d slots after two votes within reach", len(got), len(f.log.slots))
	}
	f.Deliver(1, &AcceptMsg{B: b, Inst: maxHole, V: "far", CommitUpTo: 1})
	f.Deliver(1, &AcceptMsg{B: b + 5, Inst: wild, V: "far"})
	f.Deliver(1, &DecideMsg{Inst: wild, V: "far"})
	if got := env.drain(); len(got) != 0 || len(f.log.slots) != maxHole || f.log.voted != 1 || f.acc.promised != b {
		t.Fatalf("wild instances: sent %+v, %d slots, %d votes, promised %v", got, len(f.log.slots), f.log.voted, f.acc.promised)
	}
	if f.FirstGap() != 1 || f.HighestDecided() != 0 {
		t.Fatalf("gap %d highest %d: the index on the dropped ACCEPT decides instance 0 and nothing else", f.FirstGap(), f.HighestDecided())
	}
	// An index far past the log: this replica is behind, and says so.
	f.Deliver(1, &AcceptMsg{B: b + 5, Inst: wild, V: "far", CommitUpTo: wild - 7})
	for i := 0; i < 2; i++ {
		env.now = env.now.Add(f.cfg.DriveInterval)
		f.Tick(timerDrive)
	}
	if got := env.drain(); len(got) != 1 || got[0] != (sent{1, LearnMsg{FirstGap: 1}}) {
		t.Fatalf("behind a commit index of %d: sent %+v, want one LEARN from the first gap", wild-7, got)
	}

	// A preparer cannot re-propose a vote it cannot reach, and may not
	// ignore it; nor can it hold a decided prefix, or a decision above one,
	// that far ahead: the promise does not count, the promiser is asked, and
	// nothing is sized, or moved, or allocated by the number.
	for what, entries := range map[string][]PromEntry{
		"a vote":           {{Inst: 2, AccB: b, AccV: "near"}, {Inst: wild, AccB: b, AccV: "far"}},
		"a decided prefix": {{Inst: 1 << 40}, {Inst: 1<<40 + 1, AccB: b, AccV: "far"}},
		"a decision":       {{Inst: 0}, {Inst: 1 << 40, AccV: "far"}},
	} {
		l := New(consensus.StaticLeader(0), Config{})
		lenv := newFakeEnv(0, 3)
		l.Start(lenv)
		l.Tick(timerDrive)
		lenv.drain()
		m := PromiseMsg{B: l.prop.ballot, Entries: entries}
		l.Deliver(1, m)
		if got := lenv.drain(); l.prop.prepared || len(l.log.slots) != 0 || l.pipe.nextInst != 0 || l.prop.floor != 0 || l.FirstGap() != 0 ||
			len(got) != 1 || got[0] != (sent{1, LearnMsg{FirstGap: 0}}) {
			t.Fatalf("%s out of reach: prepared=%v, %d slots, next instance %d, floor %d, sent %+v", what, l.prop.prepared, len(l.log.slots), l.pipe.nextInst, l.prop.floor, got)
		}
		lenv.mute = true
		var boxed node.Message = m
		if allocs := testing.AllocsPerRun(100, func() { l.Deliver(1, boxed) }); allocs != 0 {
			t.Fatalf("%s out of reach allocates %.1f objects a PROMISE", what, allocs)
		}
		lenv.mute = false
		l.Deliver(2, PromiseMsg{B: l.prop.ballot})
		if !l.prop.prepared || len(acceptsOf(lenv.drain())) != 0 {
			t.Fatalf("a sound promise after %s out of reach did not finish phase 1 with nothing to re-propose", what)
		}
	}
}

// handDeliver is how a test moves messages between replicas on fake envs by
// hand: the function returned hands p's outbox to those of its addressees
// that keep lets through, in sending order, and returns what it held back.
func handDeliver(nodes []*Node, envs []*fakeEnv) func(p node.ID, keep func(sent) bool) []sent {
	return func(p node.ID, keep func(sent) bool) (held []sent) {
		for _, s := range envs[p].drain() {
			if keep(s) {
				nodes[s.to].Deliver(p, s.msg)
			} else {
				held = append(held, s)
			}
		}
		return held
	}
}

// TestLaggingPreparerNeverFillsADecidedSlot is ROADMAP item 0's schedule by
// hand, without the restart and the WAL it was first seen behind: a leader
// that is behind a member of its own phase-1 quorum. Of five, p1 leads and
// decides instance 0 on p2's and p3's votes; the commit index never reaches
// them, and p1 has proposed instance 1 to nobody yet. Omega moves to p0,
// which has heard none of it, and neither has p4. p1, which has decided 0,
// has no vote to report there, and its PROMISE and p4's complete p0's quorum
// before p2's and p3's — the ones that carry the vote. A preparer that reads
// "nothing reported" as "free" fills 0 with a no-op, p2 and p3 (0 undecided,
// the ballot high enough) vote for it, and two values are decided in one
// slot. Below the decided prefix a promiser reports, p0 must propose nothing
// and ask for the decisions by value. (At three processes p2's vote would
// decide 0 on arrival: pairDecides.)
func TestLaggingPreparerNeverFillsADecidedSlot(t *testing.T) {
	const n = 5
	omega := &fakeOmega{leader: 1}
	var nodes [n]*Node
	var envs [n]*fakeEnv
	for i := range nodes {
		nodes[i], envs[i] = New(omega, Config{}), newFakeEnv(node.ID(i), n)
		nodes[i].Start(envs[i])
	}
	deliver := handDeliver(nodes[:], envs[:])
	all := func(sent) bool { return true }
	none := func(sent) bool { return false }
	voters := func(s sent) bool { return s.to == 2 || s.to == 3 }

	deliver(1, all) // p1's PREPARE, sent at boot
	for p := node.ID(0); p < n; p++ {
		deliver(p, all) // the PROMISEs: p1 stands
	}
	nodes[1].Submit("a")
	deliver(1, voters) // ACCEPT 0 reaches p2 and p3 alone
	deliver(2, all)
	deliver(3, all) // ACCEPTEDs: p1 decides instance 0
	nodes[1].Submit("b")
	envs[1].drain() // ACCEPT 1 and the commit index of 0 are in flight for good
	if v, ok := nodes[1].decision(0); !ok || v != "a" || nodes[2].FirstGap() != 0 || nodes[2].log.voted != 1 || nodes[3].log.voted != 1 || nodes[0].log.end() != 0 || nodes[4].log.end() != 0 {
		t.Fatalf("setup: p1 decided %q,%v in 0; p2 first gap %d with %d votes; p0 holds %d slots", v, ok, nodes[2].FirstGap(), nodes[2].log.voted, nodes[0].log.end())
	}

	omega.leader = 0
	nodes[0].Tick(timerDrive) // PREPARE
	deliver(0, all)
	late2, late3 := deliver(2, none), deliver(3, none) // the PROMISEs with the vote in 0 are the slower ones
	deliver(1, all)
	deliver(4, all) // p1's and p4's complete the quorum
	if !nodes[0].prop.prepared {
		t.Fatal("p0, p1 and p4 are a majority: phase 1 should stand")
	}
	held := deliver(0, voters) // what p0 sends reaches p2 and p3 first
	deliver(2, all)            // and their votes come straight back
	deliver(3, all)
	for _, h := range []struct {
		from node.ID
		msgs []sent
	}{{0, held}, {2, late2}, {3, late3}} {
		for _, s := range h.msgs {
			nodes[s.to].Deliver(h.from, s.msg)
		}
	}
	for p := node.ID(0); p < n; p++ { // whatever is still owed: LEARN, the decisions by value
		for q := node.ID(0); q < n; q++ {
			deliver(q, all)
		}
	}

	recs := make([]*consensus.Recorder, n)
	for i, r := range nodes {
		recs[i] = r.Recorder()
	}
	if rep := consensus.CheckSafety(consensus.SafetyInput{Recorders: recs}); !rep.Holds() {
		t.Fatalf("safety: %v", rep.Violations)
	}
	if d, ok := nodes[0].Recorder().Get(0); !ok || d.Value != "a" || nodes[0].FirstGap() < 1 {
		t.Fatalf("p0 has %q,%v in instance 0 and first gap %d: it should have learned p1's decision by value", d.Value, ok, nodes[0].FirstGap())
	}
	// p2's and p3's votes in 0 are at p1's ballot, which p0's commit index
	// does not decide: p0 passes on what it learned, and neither has to ask.
	for _, p := range []node.ID{2, 3} {
		if d, ok := nodes[p].Recorder().Get(0); !ok || d.Value != "a" || nodes[p].acc.askedAt != 0 {
			t.Fatalf("p%d has %q,%v in instance 0, asked at %v: p0 should have passed the decision on", p, d.Value, ok, nodes[p].acc.askedAt)
		}
	}
}

// TestNewLeaderServesNoLocalReadBeforeItsReproposalsDecide: of five, p1
// led, proposed instances 0 and 1 together, decided 0 on p2's and p3's
// votes and applied it — its client has the answer — and is gone. p0, p2
// and p3 voted in both and heard of neither decision. p0 succeeds it on p2's
// and p3's promises and re-proposes both; each ACCEPT carries a lease
// grant, the links are not FIFO, and p2's and p3's votes for 1 are the first
// thing p0 hears: its lease now stands while 0, which it has not decided and
// so not applied, is acknowledged elsewhere. A read at that instant must
// not be answered from the lease at p0's applied index; it waits until
// the re-proposals decide, and is answered from the lease then. (At three,
// p2's vote would decide 0 on its own, and the read would wait for its need
// too.)
func TestNewLeaderServesNoLocalReadBeforeItsReproposalsDecide(t *testing.T) {
	const n = 5
	omega := &fakeOmega{leader: 1}
	var nodes [n]*Node
	var envs [n]*fakeEnv
	var replies []ReadReplyMsg
	for i := range nodes {
		nodes[i], envs[i] = New(omega, Config{Lease: 300 * time.Millisecond}), newFakeEnv(node.ID(i), n)
		nodes[i].OnReadReply(func(m ReadReplyMsg) { replies = append(replies, m) })
		nodes[i].Start(envs[i])
	}
	deliver := handDeliver(nodes[:], envs[:])
	all := func(sent) bool { return true }
	up := func(s sent) bool { return s.to != 1 } // once p1 is down
	voters := []node.ID{2, 3}

	deliver(1, all) // p1's PREPARE, sent at boot
	for _, p := range []node.ID{0, 2, 3, 4} {
		deliver(p, all) // the PROMISEs: p1 stands
	}
	nodes[1].Submit("a")
	nodes[1].Submit("b")
	nodes[1].Tick(timerDrive) // "b" does not wait for 0 to decide
	deliver(1, all)           // ACCEPT 0 and 1, each granting p1 the lease
	envs[0].drain()           // p0's votes are lost, p4's, and p2's and p3's for 1
	envs[4].drain()
	for _, p := range voters {
		deliver(p, func(s sent) bool { a, ok := s.msg.(*AcceptedMsg); return !ok || a.Inst == 0 })
	}
	envs[1].drain() // the commit index of 0 dies with p1
	if nodes[1].Applied() != 1 || nodes[0].log.voted != 2 || nodes[2].log.voted != 2 || nodes[3].log.voted != 2 ||
		nodes[0].FirstGap()+nodes[2].FirstGap()+nodes[3].FirstGap() != 0 {
		t.Fatalf("setup: p1 applied %d; p0, p2 and p3 hold %d, %d and %d votes with first gaps %d, %d and %d",
			nodes[1].Applied(), nodes[0].log.voted, nodes[2].log.voted, nodes[3].log.voted,
			nodes[0].FirstGap(), nodes[2].FirstGap(), nodes[3].FirstGap())
	}

	omega.leader = 0
	for _, e := range envs {
		e.now = sim.At(400 * time.Millisecond) // p1's grants have run out
	}
	nodes[0].Tick(timerDrive) // PREPARE
	deliver(0, up)
	envs[4].drain() // p4's PROMISE is lost
	for _, p := range voters {
		deliver(p, all) // p2's and p3's PROMISEs: both votes, a quorum with p0's own
	}
	late := deliver(0, func(s sent) bool { a, ok := s.msg.(*AcceptMsg); return up(s) && !(ok && a.Inst == 0) })
	for _, p := range voters {
		deliver(p, all) // p2's and p3's votes for 1, and with them the lease
	}
	if !nodes[0].prop.prepared || !nodes[0].LeaseHeld() || nodes[0].FirstGap() != 0 {
		t.Fatalf("setup: p0 prepared %v, lease held %v, first gap %d", nodes[0].prop.prepared, nodes[0].LeaseHeld(), nodes[0].FirstGap())
	}
	nodes[0].Read(7, 1)
	if len(replies) != 0 {
		t.Fatalf("p0 answered a read %+v with instance 0 undecided: p1 applied %d commands and has acknowledged them", replies[0], nodes[1].Applied())
	}
	for _, s := range late {
		if up(s) {
			nodes[s.to].Deliver(0, s.msg)
		}
	}
	for i := 0; i < 3; i++ { // the votes for 0, and the decision of 0 and 1
		for _, p := range voters {
			deliver(p, all)
		}
		deliver(0, up)
	}
	if len(replies) != 1 || !replies[0].Local || replies[0].Seq != 7 || replies[0].Index < nodes[1].Applied() {
		t.Fatalf("replies %+v: want read 7 answered once, from the lease, at an index covering the %d commands p1 applied", replies, nodes[1].Applied())
	}
}

// TestOversizedCommandIsRefused: a command that an instance of its own could
// not carry in MaxValue bytes is dropped where it enters — by Submit, and by
// a leader or a successor-to-be receiving it in a REQ — and the largest one
// that fits is queued and proposed in an instance of its own.
func TestOversizedCommandIsRefused(t *testing.T) {
	fits := consensus.Value(strings.Repeat("v", MaxValue-len(batchPrefix)-1-uvarintLen(MaxValue)))
	if v := encodeBatch(new(node.Arena), []consensus.Value{batchPrefix + fits[2:]}); len(v) != MaxValue {
		t.Fatalf("the largest command admitted makes a %d-byte value when wrapped, want %d", len(v), MaxValue)
	}
	for _, leader := range []node.ID{0, 1} {
		r := New(consensus.StaticLeader(leader), Config{})
		env := newFakeEnv(0, 3)
		r.Start(env)
		r.Submit(fits + "v")
		r.Deliver(1, &RequestMsg{V: fits + "v"})
		if r.bat.tail != 0 || len(r.held) != 0 {
			t.Fatalf("leader p%d: %d commands queued and %d held after two over the cap", leader, r.bat.tail, len(r.held))
		}
		r.Deliver(1, &RequestMsg{V: fits})
		if r.bat.tail+len(r.held) != 1 {
			t.Fatalf("leader p%d: %d commands queued and %d held, want the one that fits", leader, r.bat.tail, len(r.held))
		}
	}
}

// TestReplierPinning: at n = 3 the leader names on each fresh ACCEPT the
// first follower to answer an ACCEPT that asked everyone. A flight its
// replier leaves unanswered for quiet is re-asked of everyone at the next
// drive and the replier unpinned; an answer to the re-ask pins nobody — a
// replier slower than quiet would pin itself again answering the ACCEPT
// that named it — so the next fresh ACCEPT asks everyone, as one does
// again each retryTimeout.
func TestReplierPinning(t *testing.T) {
	r, env := prepareLeaderCfg(t, nil, Config{BatchMax: 1, DriveInterval: 5 * time.Millisecond})
	env.drain()
	propose := func(v consensus.Value) AcceptMsg {
		t.Helper()
		r.Deliver(2, &RequestMsg{V: v})
		for _, s := range env.drain() {
			if a, ok := s.msg.(*AcceptMsg); ok && a.V == v {
				return *a
			}
		}
		t.Fatalf("no ACCEPT of %q", v)
		return AcceptMsg{}
	}
	answer := func(from node.ID, a AcceptMsg) { r.Deliver(from, &AcceptedMsg{B: a.B, Inst: a.Inst}) }
	step := func(what string, a AcceptMsg, asks, named uint64) {
		t.Helper()
		if a.Repliers != asks || r.pipe.named != named {
			t.Fatalf("%s: the ACCEPT of instance %d asks %#b, the leader names %#b; want %#b, %#b", what, a.Inst, a.Repliers, r.pipe.named, asks, named)
		}
	}
	a := propose("a")
	step("nobody pinned", a, 0, 0)
	answer(2, a)
	answer(1, a)
	a = propose("b")
	step("p2 answered first", a, 1<<2, 1<<2)

	env.now = env.now.Add(r.quiet())
	r.Tick(timerDrive)
	reasked := 0
	for _, s := range env.drain() {
		if m, ok := s.msg.(*AcceptMsg); ok && m.Inst == a.Inst && m.Repliers == 0 {
			reasked++
		}
	}
	if reasked != 2 || r.pipe.named != 0 {
		t.Fatalf("p2 silent for quiet: the leader re-asked %d followers and names %#b; want 2 and nobody", reasked, r.pipe.named)
	}
	answer(2, a) // late, to the ACCEPT that named it
	a = propose("c")
	step("a late answer to the re-ask", a, 0, 0)
	answer(1, a)
	a = propose("d")
	step("p1 answered first", a, 1<<1, 1<<1)
	answer(1, a)

	env.now = env.now.Add(retryTimeout)
	a = propose("e")
	step("a retryTimeout on", a, 0, 1<<1)
}
