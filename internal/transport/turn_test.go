package transport

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/group"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/faultline"
	"repro/internal/link"
	"repro/internal/loop"
	"repro/internal/network"
	"repro/internal/node"
)

// wireTap is a sender that records what reached the network, in order.
type wireTap struct {
	mu   sync.Mutex
	sent []held
}

func (w *wireTap) send(_, to node.ID, m node.Message) {
	w.mu.Lock()
	w.sent = append(w.sent, held{to, m})
	w.mu.Unlock()
}

func (w *wireTap) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sent)
}

// echo answers every delivery with one message and every end-of-turn
// signal with one more, noting at each signal how many deliveries the turn
// had and how much was on the wire when it came.
type echo struct {
	env       node.Env
	w         *wireTap
	open      int // deliveries since the last signal
	turns     []int
	onWire    []int
	crashAt   int // crash the station inside this delivery (0: never)
	delivered int
	crash     func()
}

func (e *echo) Start(env node.Env) { e.env = env }

func (e *echo) Deliver(_ node.ID, m node.Message) {
	e.open++
	if e.delivered++; e.delivered == e.crashAt {
		e.crash()
	}
	e.env.Send(1, m)
}

func (e *echo) Tick(key string) {
	if key != node.TurnEnd {
		return
	}
	e.turns = append(e.turns, e.open)
	e.onWire = append(e.onWire, e.w.count())
	e.open = 0
	e.env.Send(1, pingMsg())
}

// runStation boots s alone; the func it returns stops s and waits for its
// node loops to exit.
func runStation(s *station) (stop func()) {
	tb := &table{stations: []*station{s}}
	tb.run()
	return func() { tb.stop(); tb.wg.Wait() }
}

func TestQueuedMessagesAreOneTurn(t *testing.T) {
	const k = 10
	w := &wireTap{}
	a := &echo{w: w}
	s := newStation(0, 2, a, w, time.Now(), func(string, ...any) {})
	for i := 0; i < k; i++ {
		s.deliver(1, core.LeaderMsg{Epoch: uint64(i)})
	}
	stop := runStation(s)
	waitFor(t, 5*time.Second, func() bool { return w.count() == 1+k+1 }, "the turn's sends")
	stop()
	// Boot is a turn of no deliveries; then the k queued messages are one.
	if fmt.Sprint(a.turns) != fmt.Sprint([]int{0, k}) {
		t.Fatalf("turns saw %v deliveries, want [0 %d]: one signal for everything queued", a.turns, k)
	}
	// Nothing of a turn is on the wire when its signal comes — only the
	// boot turn's one message, released before the second turn began.
	if fmt.Sprint(a.onWire) != fmt.Sprint([]int{0, 1}) {
		t.Fatalf("wire held %v messages at the signals, want [0 1]", a.onWire)
	}
	// Released in the order sent, the signal's own message last.
	for i := 0; i < k; i++ {
		if got := w.sent[1+i].m.(core.LeaderMsg).Epoch; got != uint64(i) {
			t.Fatalf("wire message %d is epoch %d: sends reordered", i, got)
		}
	}
	if w.sent[k+1].m != pingMsg() {
		t.Fatalf("last on the wire is %+v, want the signal's own send", w.sent[k+1].m)
	}
}

func TestLongBacklogIsSplitIntoTurns(t *testing.T) {
	const k = 2*loop.MaxTurn + 7
	w := &wireTap{}
	a := &echo{w: w}
	s := newStation(0, 2, a, w, time.Now(), func(string, ...any) {})
	for i := 0; i < k; i++ {
		s.deliver(1, core.LeaderMsg{Epoch: uint64(i)})
	}
	stop := runStation(s)
	waitFor(t, 5*time.Second, func() bool { return w.count() == k+4 }, "the backlog's sends")
	stop()
	if fmt.Sprint(a.turns) != fmt.Sprint([]int{0, loop.MaxTurn, loop.MaxTurn, 7}) {
		t.Fatalf("turns saw %v deliveries, want the backlog cut at %d", a.turns, loop.MaxTurn)
	}
	// Each turn's sends were out before the next turn's signal.
	if want := []int{0, 1, loop.MaxTurn + 2, 2*loop.MaxTurn + 3}; fmt.Sprint(a.onWire) != fmt.Sprint(want) {
		t.Fatalf("wire held %v messages at the signals, want %v", a.onWire, want)
	}
}

func TestCrashInMidTurnDropsTheOutbox(t *testing.T) {
	const k, crashAt = 10, 4
	w := &wireTap{}
	a := &echo{w: w, crashAt: crashAt}
	s := newStation(0, 2, a, w, time.Now(), func(string, ...any) {})
	a.crash = s.crash
	for i := 0; i < k; i++ {
		s.deliver(1, core.LeaderMsg{Epoch: uint64(i)})
	}
	stop := runStation(s)
	waitFor(t, 5*time.Second, func() bool { return crashed(s) }, "the crash")
	stop() // the loop has finished the turn
	if a.delivered != crashAt {
		t.Fatalf("%d deliveries, want none after the crash in delivery %d", a.delivered, crashAt)
	}
	if len(a.turns) != 1 {
		t.Fatalf("signals %v: the crashed turn must not be signalled", a.turns)
	}
	if n := w.count(); n != 1 {
		t.Fatalf("%d messages on the wire, want the boot turn's alone: the crashed turn's %d sends die with it", n, crashAt-1)
	}
}

// bootGate counts a lane's end-of-turn signals and holds every other event
// at its gate: composed ahead of a detector, it keeps the node loop from
// ending a turn after the boot turn, or the detector from moving, until
// the gate opens.
type bootGate struct {
	gate  <-chan struct{}
	turns atomic.Int64
}

func (g *bootGate) Start(node.Env)                {}
func (g *bootGate) Deliver(node.ID, node.Message) { <-g.gate }

func (g *bootGate) Tick(key string) {
	if key == node.TurnEnd {
		g.turns.Add(1)
		return
	}
	<-g.gate
}

// TestStartReturnsBooted: Start runs every lane's boot turn — Start, the
// signal, release — on the caller, so when it returns each detector has
// its first output, each lane has seen exactly one end-of-turn signal, and
// the boot sends are on the network; a station crashed before Start has
// seen none and releases nothing, then or later. One lane a process and
// two.
func TestStartReturnsBooted(t *testing.T) {
	const n, crashedID = 3, 2
	for _, groups := range []int{1, 2} {
		t.Run(fmt.Sprintf("tcp/groups=%d", groups), func(t *testing.T) {
			gate := make(chan struct{})
			dets := make([][]*core.Detector, n)
			gates := make([][]*bootGate, n)
			autos := make([]node.Automaton, n)
			for i := range autos {
				build := func(int) node.Automaton {
					d, g := core.New(core.WithEta(5*time.Millisecond)), &bootGate{gate: gate}
					dets[i], gates[i] = append(dets[i], d), append(gates[i], g)
					return node.Compose(g, d)
				}
				if groups == 1 {
					autos[i] = build(0)
				} else {
					autos[i] = group.New(group.Config{Groups: groups, Build: build})
				}
			}
			c, err := NewTCPCluster(Config{N: n, Seed: 51, Quiet: true}, autos)
			if err != nil {
				t.Fatal(err)
			}
			c.Crash(crashedID)
			c.Start()
			for i := range autos {
				for g, d := range dets[i] {
					want := int64(1)
					if i == crashedID {
						want = 0
					} else if d.History().Current() == node.None {
						t.Errorf("p%d group %d: no Omega output when Start returned", i, g)
					}
					if got := gates[i][g].turns.Load(); got != want {
						t.Errorf("p%d group %d: %d end-of-turn signals when Start returned, want %d", i, g, got, want)
					}
				}
			}
			if c.Stats().TotalSent() == 0 {
				t.Error("no boot send on the network when Start returned")
			}
			close(gate)
			time.Sleep(30 * time.Millisecond) // heartbeats every 5 ms
			c.Stop()
			if sent := c.Stats().SentBy(crashedID); sent != 0 {
				t.Errorf("the station crashed before Start released %d sends", sent)
			}
		})
	}
}

// turnLog is a silent automaton that notes every message it is delivered
// and, at each end-of-turn signal, how many deliveries the turn had.
type turnLog struct {
	mu    sync.Mutex
	open  int
	turns []int
	msgs  []node.Message
}

func (l *turnLog) Start(node.Env) {}

func (l *turnLog) Deliver(_ node.ID, m node.Message) {
	l.mu.Lock()
	l.open++
	l.msgs = append(l.msgs, m)
	l.mu.Unlock()
}

func (l *turnLog) Tick(key string) {
	if key == node.TurnEnd {
		l.mu.Lock()
		l.turns = append(l.turns, l.open)
		l.open = 0
		l.mu.Unlock()
	}
}

func (l *turnLog) snapshot() (turns []int, msgs []node.Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.turns...), append([]node.Message(nil), l.msgs...)
}

// leaderFrames returns the TCP frames of LeaderMsgs with epochs first to
// last from process 0, back to back as a sender's vectored write lays them
// out.
func leaderFrames(t *testing.T, c *TCPCluster, first, last uint64) []byte {
	t.Helper()
	var out []byte
	for e := first; e <= last; e++ {
		env, err := codec.MarshalEnvelope(0, core.LeaderMsg{Epoch: e})
		if err != nil {
			t.Fatal(err)
		}
		out = binary.BigEndian.AppendUint32(out, uint32(len(env)))
		out = append(out, env...)
	}
	return out
}

// TestOneWriteIsOneTurn: what a peer wrote with one write is read with one
// read, decoded in one pass and pushed to the mailbox once, so the
// automaton has it as one turn — not as however many prefixes the node
// loop woke up on while a frame-by-frame reader was still pushing. And a
// frame only half arrived holds back nothing that came before it: the loop
// never waits in a read with decoded messages in hand. The half frame is
// delivered once, whole, after them, when its rest arrives.
func TestOneWriteIsOneTurn(t *testing.T) {
	const k = 100 // under loop.MaxTurn, which would cut the turn
	rec := &turnLog{}
	c, err := NewTCPCluster(Config{N: 2, Seed: 41, Quiet: true}, []node.Automaton{&turnLog{}, rec})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	conn := hostileConn(t, c, 1)
	defer conn.Close()

	split := leaderFrames(t, c, k+1, k+1)
	cut := len(split) - 2
	if _, err := conn.Write(append(leaderFrames(t, c, 1, k), split[:cut]...)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { _, msgs := rec.snapshot(); return len(msgs) >= k }, "the frames before the split one")
	time.Sleep(20 * time.Millisecond) // were the half frame wrongly delivered, it would be by now
	if turns, msgs := rec.snapshot(); fmt.Sprint(turns) != fmt.Sprint([]int{0, k}) || len(msgs) != k {
		t.Fatalf("turns %v with %d deliveries, want [0 %d]: boot, then the whole write as one turn", turns, len(msgs), k)
	}

	if _, err := conn.Write(split[cut:]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { turns, _ := rec.snapshot(); return len(turns) == 3 }, "the split frame")
	turns, msgs := rec.snapshot()
	if fmt.Sprint(turns) != fmt.Sprint([]int{0, k, 1}) {
		t.Fatalf("turns %v, want [0 %d 1]", turns, k)
	}
	for i, m := range msgs {
		if m != (core.LeaderMsg{Epoch: uint64(i + 1)}) {
			t.Fatalf("delivery %d is %+v: lost, repeated or reordered around the split frame", i, m)
		}
	}
}

// TestFrameLargerThanReadBuffer: a frame the read buffer cannot hold takes
// the copying path and comes out whole, in order with its neighbours.
func TestFrameLargerThanReadBuffer(t *testing.T) {
	rec := &turnLog{}
	c, err := NewTCPCluster(Config{N: 2, Seed: 42, Quiet: true}, []node.Automaton{&turnLog{}, rec})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	big := &rsm.RequestMsg{V: consensus.Value(strings.Repeat("0123456789", link.BatchBytes/5))} // two buffers' worth
	want := []node.Message{core.LeaderMsg{Epoch: 1}, big, core.LeaderMsg{Epoch: 2}}
	for _, m := range want {
		c.Inject(0, 1, m)
	}
	waitFor(t, 5*time.Second, func() bool { _, msgs := rec.snapshot(); return len(msgs) == len(want) }, "the three frames")
	_, got := rec.snapshot()
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("delivery %d is a %T, want the %T sent: the oversized frame was cut short or reordered", i, got[i], want[i])
		}
	}
}

// acceptedTap notes every vote one follower's ACCEPTEDs told the leader of.
type acceptedTap struct {
	from node.ID
	mu   sync.Mutex
	seen map[int]consensus.Ballot // instance → highest ballot acknowledged
}

func (a *acceptedTap) Start(node.Env) {}
func (a *acceptedTap) Tick(string)    {}
func (a *acceptedTap) Deliver(from node.ID, m node.Message) {
	if acc, ok := m.(*rsm.AcceptedMsg); ok && from == a.from {
		a.mu.Lock()
		a.seen[acc.Inst] = max(a.seen[acc.Inst], acc.B)
		a.mu.Unlock()
	}
}

// TestSentVoteIsRecovered is the crash argument for buffered appends,
// end to end over TCP with real WALs: a follower is killed
// (its WAL abandoned, never closed) at arbitrary points under a stream of
// writes, and every vote the leader ever heard from it must be in what
// its WAL directory recovers — the ACCEPTED left only after the turn's
// flush. Then it is restarted from that directory and the drill repeats.
// The client writes to whichever replica the detectors agree leads, and the
// tap that hears the victim's votes sits at every replica: an early false
// suspicion may move Omega off p0. Between p0 and p1 replies take 3 ms, so
// the leader of the two names the victim to reply for the pair (rsm's
// pipeline.named): it hears every vote the victim casts, not one a
// retryTimeout. The victim is killed only while it does not lead.
func TestSentVoteIsRecovered(t *testing.T) {
	const n, victim = 3, 2
	base := t.TempDir()
	dir := func(i int) string { return filepath.Join(base, fmt.Sprint("p", i)) }
	openStore := func(i int) *durable.WAL {
		w, err := durable.Open(dir(i), durable.Options{Sync: durable.SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	tap := &acceptedTap{from: victim, seen: map[int]consensus.Ballot{}}
	dets := make([]*core.Detector, n)
	logs := make([]*rsm.Node, n)
	build := func(i int) node.Automaton {
		dets[i] = core.New(core.WithEta(5*time.Millisecond), core.WithRebuff())
		logs[i] = rsm.New(dets[i], rsm.Config{DriveInterval: 5 * time.Millisecond, Store: openStore(i)})
		return node.Compose(dets[i], logs[i], tap)
	}
	autos := make([]node.Automaton, n)
	for i := range autos {
		autos[i] = build(i)
	}
	late := network.Reliable(3*time.Millisecond, 3*time.Millisecond)
	slow := faultline.Plan{Links: map[faultline.Link]network.Profile{{From: 1, To: 0}: late, {From: 0, To: 1}: late}}
	c, err := NewTCPCluster(Config{N: n, Seed: 17, Quiet: true, Fault: mustInjector(t, n, 17, slow)}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	// leader is the replica the detectors last agreed leads, never the
	// victim; agreed waits for such an agreement and notes it.
	var leader atomic.Int32
	agreed := func() bool {
		l, ok := agreement(dets, nil)
		if ok && l != victim {
			leader.Store(int32(l))
		}
		return ok && l != victim
	}
	waitFor(t, 20*time.Second, agreed, "initial agreement on a leader other than the victim")

	stop := make(chan struct{})
	var clients sync.WaitGroup
	clients.Add(1)
	go func() { // a client at the replica that is neither leader nor victim
		defer clients.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			l := node.ID(leader.Load())
			for k := 0; k < 5; k++ {
				c.Inject(3-victim-l, l, rsm.RequestMsg{V: consensus.Value(fmt.Sprint("cmd-", i, "-", k))})
			}
			time.Sleep(300 * time.Microsecond)
		}
	}()
	defer func() { close(stop); clients.Wait() }()

	checked := 0
	for round := 0; round < 4; round++ {
		heard := func() int { tap.mu.Lock(); defer tap.mu.Unlock(); return len(tap.seen) }
		before := heard()
		waitFor(t, 20*time.Second, func() bool { agreed(); return heard() >= before+50 }, "votes from the victim")
		waitFor(t, 20*time.Second, agreed, "a leader other than the victim")
		time.Sleep(time.Duration(round) * 137 * time.Microsecond) // land the kill at different points of a turn
		c.Crash(victim)
		time.Sleep(20 * time.Millisecond) // what it sent before dying has arrived; its loop has wound down

		w := openStore(victim) // the dead incarnation's handle is abandoned, as kill -9 would
		st := w.State()
		voted := map[int]consensus.Ballot{}
		for _, a := range st.Accepted {
			voted[int(a.Inst)] = consensus.Ballot(a.B)
		}
		for _, d := range st.Decided {
			voted[int(d.Inst)] = ^consensus.Ballot(0) // decided: beyond any vote
		}
		tap.mu.Lock()
		for inst, b := range tap.seen {
			if got, ok := voted[inst]; inst >= int(st.SnapIndex) && (!ok || got < b) {
				t.Errorf("round %d: the leader heard p%d vote for instance %d at ballot %v; its WAL recovers %v (found %v)", round, victim, inst, b, got, ok)
			}
		}
		checked += len(tap.seen)
		tap.mu.Unlock()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		c.Restart(victim, build(victim))
	}
	if checked < 200 {
		t.Fatalf("only %d votes checked", checked)
	}
}

// TestTCPWildInstanceIsDropped: the frames that used to kill a follower —
// an ACCEPT at the leader's own ballot, and a by-value DECIDE, for an
// instance 2²⁸ past its log made it append 2²⁸ slots (10 GB) — cost it
// nothing: no vote, nothing installed, and the log goes on.
func TestTCPWildInstanceIsDropped(t *testing.T) {
	const n, wild = 3, 1 << 28
	tap := &acceptedTap{from: 1, seen: map[int]consensus.Ballot{}}
	logs := make([]*rsm.Node, n)
	autos := make([]node.Automaton, n)
	for i := range autos {
		logs[i] = rsm.New(consensus.StaticLeader(0), rsm.Config{DriveInterval: 5 * time.Millisecond})
		autos[i] = logs[i]
	}
	autos[0] = node.Compose(logs[0], tap)
	c, err := NewTCPCluster(Config{N: n, Seed: 7, Quiet: true}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	write := func(v consensus.Value) {
		t.Helper()
		want := logs[1].Recorder().Count() + 1
		waitFor(t, 10*time.Second, func() bool {
			c.Inject(2, 0, rsm.RequestMsg{V: v})
			return logs[1].Recorder().Count() >= want
		}, fmt.Sprintf("%q applied at the follower", v))
	}
	write("before")
	var b consensus.Ballot
	waitFor(t, 10*time.Second, func() bool {
		tap.mu.Lock()
		defer tap.mu.Unlock()
		b = tap.seen[0]
		return b != consensus.NoBallot
	}, "the follower's first vote at the leader")
	c.Inject(0, 1, &rsm.AcceptMsg{B: b, Inst: wild, V: "far"})
	c.Inject(0, 1, &rsm.DecideMsg{Inst: wild, V: "far"})
	write("after")
	c.Stop()
	if _, voted := tap.seen[wild]; voted || logs[1].HighestDecided() >= wild {
		t.Fatalf("voted across the hole: %v; highest decided %d", voted, logs[1].HighestDecided())
	}
}

// BenchmarkStationTurn is one steady-state turn of a leader's node loop:
// ten client requests and the vote that completes the previous instance,
// then the end of the turn — one pump, one ACCEPT broadcast carrying the
// commit index, one release. ns/op and allocs/op are per turn of ten
// commands.
func BenchmarkStationTurn(b *testing.B) {
	const burst = 10
	leader := rsm.New(consensus.StaticLeader(0), rsm.Config{BatchMax: 16, Window: 8})
	s := newStation(0, 3, leader, discard{}, time.Now(), func(string, ...any) {}).lanes[0]
	leader.Start(s)
	leader.Tick("rsm/drive") // opens the ballot
	ballot := s.outbox[0].m.(rsm.PrepareMsg).B
	s.endTurn()
	s.dispatch(event{from: 1, msg: rsm.PromiseMsg{B: ballot}})
	s.endTurn()
	if !leader.IsLeader() {
		b.Fatal("leader not prepared")
	}
	reqs := make([]node.Message, burst)
	for i := range reqs {
		reqs[i] = &rsm.RequestMsg{V: consensus.Value(fmt.Sprintf("command-%02d-with-a-64-byte-payload-like-the-benchmark-sends....", i))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 {
			s.dispatch(event{from: 1, msg: &rsm.AcceptedMsg{B: ballot, Inst: i - 1}})
		}
		for _, m := range reqs {
			s.dispatch(event{from: 2, msg: m})
		}
		s.endTurn()
	}
	b.StopTimer()
	if got := leader.FirstGap(); got != b.N-1 {
		b.Fatalf("decided %d instances in %d turns", got, b.N)
	}
}

// discard is a network that drops everything.
type discard struct{}

func (discard) send(_, _ node.ID, _ node.Message) {}
