package rsm

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
)

// The addressed commit announcement (pipeline.go: owe, announceCommit,
// catchUp) as properties over seeded worlds — who is sent a commit index,
// when, and how often — and two one-event tests on a hand-driven leader.

// spy sits between an automaton and its Env and calls send for every
// message as it leaves, and event after every turn the runtime ends — once
// the automaton's own end of the turn has sent what it owed — with the
// timer key when the turn was a tick.
type spy struct {
	node.Automaton
	node.Env
	send  func(to node.ID, m node.Message)
	event func(key string)
	key   string // the open turn's timer key, "" for a boot or a delivery
}

func (s *spy) Start(env node.Env) { s.Env = env; s.key = ""; s.Automaton.Start(s) }
func (s *spy) Tick(key string) {
	if key != node.TurnEnd {
		s.key = key
		s.Automaton.Tick(key)
		return
	}
	s.Automaton.Tick(key)
	s.event(s.key)
}
func (s *spy) Deliver(from node.ID, m node.Message) {
	s.key = ""
	s.Automaton.Deliver(from, m)
}
func (s *spy) Send(to node.ID, m node.Message) { s.send(to, m); s.Env.Send(to, m) }
func (s *spy) Broadcast(m node.Message) {
	for to := 0; to < s.N(); to++ {
		if node.ID(to) != s.ID() {
			s.Send(node.ID(to), m)
		}
	}
}

// announceWorld is one world of the sweep: p0 leads, a client submits a
// burst a millisecond for 300 ms at each replica of ingress, and the leader
// is watched through a spy.
type announceWorld struct {
	t       *testing.T
	name    string
	c       *cluster
	cfg     Config
	ingress []node.ID

	loaded     bool     // the load has begun: the warm-up is not judged
	event      int      // the leader's event counter
	waiting    []int    // per replica: the highest instance carrying a command of its own that the leader applied in this event, -1 none
	lastAccept sim.Time // when the leader last sent an ACCEPT
	sent       map[string]bool
	bystander  int // DECIDEs to a replica that forwarded nothing, while ACCEPTs flowed
	early      int // DECIDEs sooner than quiet after an ACCEPT, where nobody is owed one
	drives     int // the leader's drive ticks under load
	// untold are the instances the leader applied for an origin it told
	// nothing, at a quorum of two: the origin decides them on its own vote.
	untold []untold
	// learned is when each replica learned each instance, as its Recorder's
	// hook is told: a Recorder keeps no learn time.
	learned []map[int]sim.Time
}

type untold struct {
	origin node.ID
	inst   int
	at     sim.Time
}

func origin(v consensus.Value) node.ID {
	var seq, at int
	if _, err := fmt.Sscanf(string(v), "a%d@p%d", &seq, &at); err != nil {
		return node.None
	}
	return node.ID(at)
}

func newAnnounceWorld(t *testing.T, n int, seed int64, cfg Config, ingress []node.ID) *announceWorld {
	c := newClusterCfg(t, n, seed, network.Timely(ms), cfg)
	cfg.fill()
	a := &announceWorld{t: t, c: c, cfg: cfg, ingress: ingress, waiting: make([]int, n), sent: map[string]bool{},
		name: fmt.Sprintf("n=%d seed %d ingress %v drive %v lease %v", n, seed, ingress, cfg.DriveInterval, cfg.Lease)}
	quiet := min(cfg.DriveInterval, retryTimeout/2)
	pair := consensus.Majority(n) == 2 // pairDecides
	// (a), checked as each event of the leader closes, its turn ended:
	// whoever a command applied in it came from has been sent an index past
	// it in that event — or, at a quorum of two, is checked at the end of
	// the run (untold).
	closeEvent := func(key string) {
		if key == timerDrive && a.loaded {
			a.drives++
		}
		for o, inst := range a.waiting {
			if inst >= 0 && pair {
				a.untold = append(a.untold, untold{node.ID(o), inst, c.world.Kernel.Now()})
			} else if inst >= 0 {
				t.Errorf("%s: event %d decided instance %d carrying p%d's command and sent p%d no index covering it", a.name, a.event, inst, o, o)
			}
			a.waiting[o] = -1
		}
		a.event++
	}
	for o := range a.waiting {
		a.waiting[o] = -1
	}
	for _, nd := range c.nodes {
		learned := map[int]sim.Time{}
		a.learned = append(a.learned, learned)
		nd.Recorder().AddNotify(func(d consensus.Decision) {
			if d.Cmd == 0 {
				learned[d.Instance] = d.At
			}
		})
	}
	c.nodes[0].OnApply(func(inst, _ int, v consensus.Value) {
		if o := origin(v); o > 0 && c.nodes[0].IsLeader() {
			a.waiting[o] = inst
		}
	})
	leader := &spy{Automaton: node.Compose(c.dets[0], c.nodes[0]), event: closeEvent}
	leader.send = func(to node.ID, m node.Message) {
		now := c.world.Kernel.Now()
		switch m := m.(type) {
		case *AcceptMsg:
			a.lastAccept = now
			if m.CommitUpTo > a.waiting[to] {
				a.waiting[to] = -1
			}
		case *DecideMsg:
			if m.B == consensus.NoBallot || !a.loaded {
				return
			}
			if m.Inst > a.waiting[to] {
				a.waiting[to] = -1
			}
			// (b) nobody is sent one index twice at one ballot.
			if key := fmt.Sprint(to, m.B, m.Inst); a.sent[key] {
				t.Errorf("%s: p%d was sent commit index %d at ballot %v twice", a.name, to, m.Inst, m.B)
			} else {
				a.sent[key] = true
			}
			idle := now.Sub(a.lastAccept) >= quiet
			// (c) a replica that forwarded nothing hears by DECIDE only in a catch-up.
			if !slices.Contains(ingress, to) && !idle {
				a.bystander++
			}
			// (e) a leader whose own client is the only one owes nobody, and at
			// a quorum of two nobody is owed anything.
			if (pair || len(ingress) == 1 && ingress[0] == 0) && !idle {
				a.early++
			}
		}
	}
	c.world.SetAutomaton(0, leader)
	return a
}

// run drives the world and checks (c), (d) and (e) at its end.
func (a *announceWorld) run() {
	t, c := a.t, a.c
	c.world.Start()
	c.world.RunFor(400 * ms)
	c.nodes[a.ingress[0]].Submit("warm-up")
	c.world.RunFor(100 * ms)
	if !c.nodes[0].IsLeader() || c.nodes[len(c.nodes)-1].Applied() == 0 {
		t.Fatalf("%s: warm-up: p0 leader=%v, p%d applied %d", a.name, c.nodes[0].IsLeader(), len(c.nodes)-1, c.nodes[len(c.nodes)-1].Applied())
	}
	before := map[string]uint64{}
	kinds := []string{KindLearn, KindNack, KindPrepare, KindPromise}
	for _, k := range kinds {
		before[k] = c.world.Stats.KindCount(k)
	}
	a.loaded = true
	seq, warm := 0, c.nodes[0].Applied()
	for tick := 0; tick < 300; tick++ {
		for _, in := range a.ingress {
			for i := 0; i <= tick%5; i++ {
				c.nodes[in].Submit(consensus.Value(fmt.Sprintf("a%d@p%d", seq, in)))
				seq++
			}
		}
		c.world.RunFor(ms)
	}
	// The ACCEPTs of the load bring the leader's drive forward (driveIn) and
	// never put it off: its housekeeping — redrive, the lease refresh, the
	// partial-batch flush — runs at least as often as the plain tick would.
	if least := int(300 * ms / a.cfg.DriveInterval); a.drives < least {
		t.Errorf("%s: the leader's drive ran %d times in 300 ms of load, want at least %d", a.name, a.drives, least)
	}
	a.settles(warm+seq, "the load")
	// And the same for one instance alone on an idle stream, which no tick
	// under load has left its timer near.
	c.world.RunFor(time.Second + time.Duration(seq)*time.Microsecond)
	c.nodes[a.ingress[0]].Submit(consensus.Value(fmt.Sprintf("a%d@p%d", seq, a.ingress[0])))
	a.settles(warm+seq+1, "a lone instance")
	c.world.RunFor(2 * retryTimeout) // long enough for any follower to have asked
	for _, k := range kinds {
		if got := c.world.Stats.KindCount(k) - before[k]; got != 0 {
			t.Errorf("%s: %d %s sent on a fault-free run, want 0", a.name, got, k)
		}
	}
	if a.bystander != 0 {
		t.Errorf("%s: (c) %d DECIDEs went to a replica that forwarded nothing while ACCEPTs flowed", a.name, a.bystander)
	}
	if a.early != 0 {
		t.Errorf("%s: (e) %d DECIDEs left before the stream went quiet where nobody is owed one", a.name, a.early)
	}
	for _, u := range a.untold {
		if at, ok := a.learned[u.origin][u.inst]; !ok || at > u.at.Add(ms) {
			t.Errorf("%s: (a) p%d, told nothing of instance %d the leader applied at %v, applied it %v (%v): want within a link delay", a.name, u.origin, u.inst, u.at, at, ok)
		}
	}
	if rep := c.safety(); !rep.Holds() {
		t.Fatalf("%s: safety: %v", a.name, rep.Violations)
	}
}

// settles is (d): the stream goes quiet, and within quiet of the last
// ACCEPT (its quorum comes sooner) and a link delay for the catch-up to
// arrive, every replica has applied everything — unasked.
func (a *announceWorld) settles(applied int, what string) {
	c := a.c
	c.world.RunUntil(c.world.Kernel.Now().Add(time.Second), func() bool { return c.nodes[0].Applied() == applied })
	c.world.RunUntil(a.lastAccept.Add(min(a.cfg.DriveInterval, retryTimeout/2)+ms), nil)
	if got := c.nodes[0].Applied(); got != applied {
		a.t.Fatalf("%s: after %s the leader has applied %d commands, want %d", a.name, what, got, applied)
	}
	for i, s := range c.nodes {
		if s.Applied() != applied {
			a.t.Errorf("%s: %v after the last ACCEPT of %s p%d has applied %d, the leader %d", a.name, c.world.Kernel.Now().Sub(a.lastAccept), what, i, s.Applied(), applied)
		}
	}
}

// TestAnnouncementProperties sweeps the rule: (a) an origin is sent an
// index covering its command in the event the quorum completes, by DECIDE
// or on the ACCEPT leaving then — at a quorum of two it is sent nothing and
// applies the instance on its own vote within a link delay of the leader;
// (b) nobody is sent one (ballot, index) twice; (c) a replica that
// forwarded nothing is sent no DECIDE while ACCEPTs flow; (d) once they
// stop, every follower has applied what the leader has within
// min(DriveInterval, retryTimeout/2) and a link delay, with no LEARN and
// nothing else a follower initiates; (e) commands submitted at the leader
// owe nobody, nor, at a quorum of two, any command. A leader that
// broadcast every DECIDE fails (c) and (e).
func TestAnnouncementProperties(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	bench := Config{BatchMax: 16, Window: 8, DriveInterval: 5 * ms} // bench/spec.go
	for _, n := range []int{3, 5} {
		for _, ingress := range [][]node.ID{{node.ID(n - 1)}, {1, node.ID(n - 1)}, {0}} {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				newAnnounceWorld(t, n, seed, bench, ingress).run()
			}
		}
	}
	// tcp_mixed's shape: three processes, leased.
	leased := bench
	leased.Lease = 300 * ms
	for _, ingress := range [][]node.ID{{2}, {1, 2}, {0}} {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			newAnnounceWorld(t, 3, seed, leased, ingress).run()
		}
	}
}

// TestCatchUpBeatsTheStaleVoteRule is (d) where it is tight: chaossoak's
// shape (DriveInterval 2η = 50 ms, retryTimeout 100 ms), where a catch-up
// that waited for a second quiet tick would come as the followers' votes go
// stale and they ask (fillGaps); and a tick longer than retryTimeout/2,
// where waiting for any tick would — and where a drive that every ACCEPT
// re-armed, rather than only brought forward, never ran under load (run
// counts the leader's drive ticks).
func TestCatchUpBeatsTheStaleVoteRule(t *testing.T) {
	for _, cfg := range []Config{
		{BatchMax: 16, Window: 8, DriveInterval: 50 * ms},
		{BatchMax: 16, Window: 8, DriveInterval: 90 * ms},
	} {
		for seed := int64(1); seed <= 5; seed++ {
			newAnnounceWorld(t, 5, seed, cfg, []node.ID{2}).run()
			newAnnounceWorld(t, 3, seed, cfg, []node.ID{0}).run()
		}
	}
}

// TestReproposedInstanceIsAnnouncedToAll is (f): what a new leader
// re-proposes from its promises was batched by somebody else, for clients
// it knows nothing of — everyone is told the moment it is decided.
func TestReproposedInstanceIsAnnouncedToAll(t *testing.T) {
	promise := &PromiseMsg{Entries: []PromEntry{{Inst: 0, AccB: consensus.MakeBallot(0, 1, 3), AccV: "theirs"}}}
	r, env := prepareLeader(t, promise)
	env.drain()
	r.Deliver(2, &AcceptedMsg{B: r.prop.ballot, Inst: 0})
	want := &DecideMsg{B: r.prop.ballot, Inst: 1}
	if got := env.drain(); len(got) != 2 || !got[0].is(1, want) || !got[1].is(2, want) {
		t.Fatalf("after the re-proposed instance's quorum: sent %+v, want %+v to 1 and 2", got, want)
	}

	// And so is a new ballot's index when there is nothing to re-propose:
	// followers that fell behind under the old leader find out they are.
	r = New(consensus.StaticLeader(0), Config{})
	env = newFakeEnv(0, 3)
	r.Start(env)
	r.learn(0, "decided under the old leader")
	r.Tick(timerDrive)
	env.drain()
	r.Deliver(1, PromiseMsg{B: r.prop.ballot})
	want = &DecideMsg{B: r.prop.ballot, Inst: 1}
	if got := env.drain(); len(got) != 2 || !got[0].is(1, want) || !got[1].is(2, want) {
		t.Fatalf("a fresh ballot with nothing to re-propose sent %+v, want %+v to 1 and 2", got, want)
	}
}

// TestRequestFromAStrangerOwesNobody is (g), ROADMAP 1(e)'s decodable but
// wrong peer: a REQ whose sender is outside [0, n) is proposed like any
// other, owes nobody a DECIDE and sizes nothing by its id.
func TestRequestFromAStrangerOwesNobody(t *testing.T) {
	instance := func(r *Node, from node.ID) {
		r.Deliver(from, &RequestMsg{V: "cmd"})
		r.Deliver(1, &AcceptedMsg{B: r.prop.ballot, Inst: r.pipe.nextInst - 1})
	}
	for _, from := range []node.ID{-1, 3, 1 << 40} {
		r, env := prepareLeaderCfg(t, nil, Config{BatchMax: 1})
		env.drain()
		instance(r, from)
		out := env.drain()
		if got := acceptsOf(out); got[0] != "cmd" || r.FirstGap() != 1 {
			t.Fatalf("REQ from %d: proposed %v, first gap %d; want it proposed and decided", from, got, r.FirstGap())
		}
		if d := decidesOf(out); len(d) != 0 {
			t.Fatalf("REQ from %d: DECIDEs %+v, want none: nobody here waits on it", from, d)
		}
	}
	allocs := func(from node.ID) float64 {
		r, env := prepareLeaderCfg(t, nil, Config{BatchMax: 1})
		env.mute = true
		instance(r, 1) // warm the flight, the ring and the window
		return testing.AllocsPerRun(200, func() { instance(r, from) })
	}
	// Nothing: the REQ, a constant, is boxed statically, the value proposed is
	// cut from the leader's arena, and the ACCEPT, the ACCEPTED and the DECIDE
	// owed to p2 from slabs.
	if known, wild := allocs(2), allocs(1<<40); known != 0 || wild != 0 {
		t.Fatalf("an instance for a REQ from 1<<40 allocates %.1f objects, from p2 %.1f; want 0", wild, known)
	}
}

// TestSelfDecideGate: a vote decides its instance on its own only at a
// quorum of two, on an ACCEPT from its ballot's owner, with or without a
// lease. Where either fails the vote stays open past its turn, and the origin
// still hears by DECIDE: in the event the quorum completes, or — the ACCEPT
// came by someone else, the leader owing nobody at a quorum of two — from
// the catch-up once the stream is quiet.
func TestSelfDecideGate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		lease   time.Duration
		from    node.ID // who hands the origin p2 the leader p1's ACCEPT
		decides bool    // p2's vote decides at the end of its turn
		catchUp bool    // p2 hears from the catch-up, not when the quorum completes
	}{
		{name: "the rule", n: 3, from: 1, decides: true},
		{name: "a lease", n: 3, lease: time.Second, from: 1, decides: true},
		{name: "five processes", n: 5, from: 1},
		{name: "an ACCEPT from a non-owner", n: 3, from: 0, catchUp: true},
	} {
		cfg := Config{BatchMax: 1, Lease: tc.lease}
		leader, lenv := New(consensus.StaticLeader(1), cfg), newFakeEnv(1, tc.n)
		leader.Start(lenv)
		leader.Tick(timerDrive)
		for p := 2; p <= consensus.Majority(tc.n); p++ {
			leader.Deliver(node.ID(p), PromiseMsg{B: leader.prop.ballot})
		}
		lenv.drain()
		leader.Deliver(2, &RequestMsg{V: "x"})
		out := lenv.drain()
		accept, ok := out[0].msg.(*AcceptMsg)
		if !leader.IsLeader() || len(out) != tc.n-1 || !ok {
			t.Fatalf("%s: setup: leader=%v, sent %+v", tc.name, leader.IsLeader(), out)
		}

		p2 := New(consensus.StaticLeader(1), cfg)
		p2.Start(newFakeEnv(2, tc.n))
		withTurns(p2)
		turn(p2, tc.from, accept)
		if decided := p2.FirstGap() == 1; decided != tc.decides || p2.log.voted+p2.FirstGap() != 1 {
			t.Fatalf("%s: after its turn the vote is decided=%v (first gap %d, %d open); want %v", tc.name, decided, p2.FirstGap(), p2.log.voted, tc.decides)
		}
		for p := 2; p <= consensus.Majority(tc.n); p++ {
			leader.Deliver(node.ID(p), &AcceptedMsg{B: accept.B, Inst: accept.Inst})
		}
		decides := decidesOf(lenv.drain())
		if tc.decides {
			if len(decides) != 0 || leader.FirstGap() != 1 {
				t.Fatalf("%s: the quorum sent DECIDEs %+v (first gap %d); want none, the origin decided", tc.name, decides, leader.FirstGap())
			}
			continue
		}
		if tc.catchUp && len(decides) == 0 {
			lenv.now = lenv.now.Add(leader.cfg.DriveInterval)
			leader.Tick(timerDrive)
			for _, d := range decidesOf(lenv.drain()) { // p0 is told too
				if d.to == 2 {
					decides = append(decides, d)
				}
			}
		}
		if len(decides) != 1 || !decides[0].is(2, &DecideMsg{B: leader.prop.ballot, Inst: 1}) {
			t.Fatalf("%s: the origin is sent %+v, want the commit index", tc.name, decides)
		}
		p2.Deliver(1, decides[0].msg)
		if p2.FirstGap() != 1 {
			t.Fatalf("%s: the DECIDE left the vote open", tc.name)
		}
	}
}
