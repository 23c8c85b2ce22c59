// Package transport runs the protocol automatons on real time and real
// concurrency instead of the deterministic simulator: wall-clock timers,
// and either an in-memory network with injected delay/loss or real TCP
// sockets on the loopback interface. A process is a station whose node
// loops — one goroutine each — are its lanes: one for an ordinary
// automaton, one per group for a sharded process (a group.Engine).
// Messages cross process boundaries through the binary codec
// (internal/wire), so live runs exercise serialization exactly as a
// deployment would. The examples/livecluster program demonstrates it.
package transport

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus/group"
	"repro/internal/loop"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
)

// event is one unit of work for a node loop: a delivery, a timer expiry,
// or a reboot carrying the lane's automaton of the next incarnation.
type event struct {
	from     node.ID
	msg      node.Message
	timerKey string
	reboot   node.Automaton
}

// held is one message an automaton sent during the current turn.
type held struct {
	to node.ID
	m  node.Message
}

// sender is how a station hands an outbound message to the network layer.
type sender interface {
	send(from, to node.ID, m node.Message)
}

// station is one process: its lanes, and what belongs to the process as a
// whole — the crash flag every lane obeys, the obs.Down and obs.Up events,
// reboots, and the routing of what it receives to its lanes.
type station struct {
	id      node.ID
	n       int
	lanes   []*lane
	sharded bool // the lanes run a group.Engine's groups; fixed for life
	net     sender
	start   time.Time
	logf    func(format string, args ...any)
	// sink is the cluster's, set before run (obs.Nop until then): the
	// station reports its own going down and coming up.
	sink obs.Sink

	// life is twice the number of reboots, plus one while the process is
	// crashed: a lane acts only while it equals the lane's own. Reboots
	// push to the lanes under mu, so every lane swaps in the same order.
	life atomic.Uint64
	mu   sync.Mutex
}

// lane is one node loop of a station: a single goroutine consumes the
// mailbox and invokes the automaton, so the node.Env single-threading
// contract holds. It works in turns (see node.TurnEnd and DESIGN.md
// "Turns"). The lane is its automaton's Env; lane g of a sharded process
// lives in group g's logical id space (group.Physical, group.Logical) and
// wraps what it sends in a group.Msg.
type lane struct {
	st        *station
	g         int
	id        node.ID // the station's id in the lane's id space
	automaton node.Automaton
	life      uint64 // station.life while automaton's incarnation is up
	mbox      *loop.Mailbox[event]

	// timers and outbox — what the automaton sent this turn, in order,
	// not yet on the network — are touched only from the node loop.
	timers *loop.Timers
	outbox []held
}

var _ node.Env = (*lane)(nil)

func newStation(id node.ID, n int, a node.Automaton, net sender, start time.Time, logf func(string, ...any)) *station {
	s := &station{id: id, n: n, net: net, start: start, logf: logf, sink: obs.Nop{}}
	var autos []node.Automaton
	autos, s.sharded = lanesOf(a)
	for g, a := range autos {
		l := &lane{st: s, g: g, id: group.Logical(id, g, n), automaton: a, mbox: loop.NewMailbox[event]()}
		l.timers = loop.NewTimers(func(key string) { l.mbox.Push(event{timerKey: key}) })
		s.lanes = append(s.lanes, l)
	}
	return s
}

// lanesOf returns the automatons a process of automaton a runs on its
// lanes: a group.Engine's groups, or a alone.
func lanesOf(a node.Automaton) (autos []node.Automaton, sharded bool) {
	if e, ok := a.(*group.Engine); ok {
		return e.Automatons(), true
	}
	return []node.Automaton{a}, false
}

// deliver enqueues an inbound message on its lane: the one lane of an
// unsharded process, lane Group of a sharded one — unwrapped, its sender's
// id rotated into the group's space. A sharded process drops anything but
// a group.Msg for one of its lanes.
func (s *station) deliver(from node.ID, m node.Message) {
	if !s.sharded {
		s.lanes[0].mbox.Push(event{from: from, msg: m})
	} else if gm, ok := m.(group.Msg); ok && gm.Group >= 0 && gm.Group < len(s.lanes) && gm.Inner != nil {
		s.lanes[gm.Group].mbox.Push(event{from: group.Logical(from, gm.Group, s.n), msg: gm.Inner})
	}
}

// deliverAll enqueues, in order, the messages one socket read decoded. An
// unsharded process takes them with one mailbox push, so what a peer
// flushed with one write is one turn here rather than whatever prefix of
// it the node loop happened to wake up on; a sharded one routes each. The
// batch is zeroed for the caller to reuse without retaining the messages.
func (s *station) deliverAll(batch []event) {
	if s.sharded {
		for _, e := range batch {
			s.deliver(e.from, e.msg)
		}
	} else {
		s.lanes[0].mbox.PushAll(batch)
	}
	clear(batch)
}

// crash makes the process inert (crash-stop): every lane at once. Every
// way a process goes down — Cluster.Crash, a faultline-scheduled crash or
// restart — ends here, so this is where the observer learns of it, once
// per crash.
func (s *station) crash() {
	for v := s.life.Load(); v%2 == 0; v = s.life.Load() {
		if s.life.CompareAndSwap(v, v+1) {
			s.emit(obs.Down)
			return
		}
	}
}

func (s *station) emit(what obs.What) {
	s.sink.OnEvent(obs.Event{T: s.Now(), What: what, Proc: int(s.id), Peer: -1})
}

// reboot restarts the process with a fresh automaton of the same shape —
// typically one rebuilt from the process's durable store; a sharded
// process's must have as many groups, as its WAL directories are per
// group. Safe from any goroutine. The process is up at once, and each lane
// swaps in its new automaton on its own loop; until it has, it drops what
// reaches it, as a crashed process does.
func (s *station) reboot(a node.Automaton) {
	autos, sharded := lanesOf(a)
	if sharded != s.sharded || len(autos) != len(s.lanes) {
		panic(fmt.Sprintf("transport: process %d (%d lanes, sharded %v) rebooted with %d (sharded %v)",
			s.id, len(s.lanes), s.sharded, len(autos), sharded))
	}
	v := s.life.Load()
	for !s.life.CompareAndSwap(v, (v|1)+1) { // up, in the next incarnation
		v = s.life.Load()
	}
	s.emit(obs.Up) // before any lane's Start: the new incarnation's events follow it
	s.mu.Lock()
	defer s.mu.Unlock()
	for g, l := range s.lanes {
		l.mbox.Push(event{reboot: autos[g]})
	}
}

// Now is the process clock: wall-clock time since the cluster started.
func (s *station) Now() sim.Time { return sim.Time(time.Since(s.start).Nanoseconds()) }

// boot is the lane's first turn: Start, the end-of-turn signal, release.
// It runs before the lane's node loop exists, on the goroutine that starts
// the cluster; what reaches the mailbox meanwhile waits for the loop.
func (l *lane) boot() {
	l.automaton.Start(l)
	l.endTurn()
}

// run is the node loop; it returns when the mailbox closes.
func (l *lane) run(wg *sync.WaitGroup) {
	defer wg.Done()
	loop.Run(l.mbox, l.dispatch, l.endTurn)
}

// live reports whether the lane's automaton may act: the process is up,
// and in the incarnation the automaton belongs to.
func (l *lane) live() bool { return l.st.life.Load() == l.life }

func (l *lane) dispatch(e event) {
	switch {
	case e.reboot != nil:
		// Handled whatever the crash flag says: the whole point is waking
		// a crashed process.
		l.rebootNow(e.reboot)
	case e.timerKey != "":
		// Fired first: an expiry a crashed process drops still comes off
		// the timer table's books.
		if l.timers.Fired(e.timerKey) && l.live() {
			l.automaton.Tick(e.timerKey)
		}
	case l.live():
		l.automaton.Deliver(e.from, e.msg)
	}
}

// endTurn gives the automaton the end-of-turn signal and then releases
// what it sent during the turn. A crash in mid-turn drops whatever has not
// reached the network by then, like the RAM it was in: had the signal
// made those sends' records durable they are merely unseen, and where it
// never ran the records were never written either (DESIGN.md "Turns").
func (l *lane) endTurn() {
	if l.live() {
		l.automaton.Tick(node.TurnEnd)
	}
	for i, h := range l.outbox {
		if l.live() {
			l.st.net.send(l.st.id, h.to, h.m)
		}
		l.outbox[i] = held{}
	}
	l.outbox = l.outbox[:0]
}

// rebootNow swaps in the lane's automaton of the next incarnation, on the
// node loop: every timer and every unreleased send of the previous one is
// dropped (its RAM died with it), and the new automaton boots exactly like
// a fresh process — within the current turn, whose end releases what its
// Start sent. Should the process have crashed again since the reboot, the
// lane stays down.
func (l *lane) rebootNow(a node.Automaton) {
	l.timers.StopAll()
	clear(l.outbox)
	l.outbox = l.outbox[:0]
	l.automaton = a
	l.life += 2
	l.automaton.Start(l)
}

// --- node.Env -----------------------------------------------------------

// ID implements node.Env.
func (l *lane) ID() node.ID { return l.id }

// N implements node.Env.
func (l *lane) N() int { return l.st.n }

// Now implements node.Env.
func (l *lane) Now() sim.Time { return l.st.Now() }

// Send implements node.Env: m waits in the outbox for the end of the turn.
// A sharded process's lane addresses the process that hosts logical id to
// and wraps m with its group.
func (l *lane) Send(to node.ID, m node.Message) {
	if !l.live() {
		return
	}
	if to == l.id {
		panic(fmt.Sprintf("transport: process %d sending to itself", l.st.id))
	}
	if l.st.sharded {
		to, m = group.Physical(to, l.g, l.st.n), group.Wrap(l.g, m)
	}
	l.outbox = append(l.outbox, held{to, m})
}

// Broadcast implements node.Env, in ascending id order.
func (l *lane) Broadcast(m node.Message) {
	for to := 0; to < l.st.n; to++ {
		if node.ID(to) != l.id {
			l.Send(node.ID(to), m)
		}
	}
}

// SetTimer implements node.Env. It must be called from the node loop (the
// automaton's callbacks), which is the node.Env contract.
func (l *lane) SetTimer(key string, d time.Duration) {
	if l.live() {
		l.timers.Set(key, d)
	}
}

// StopTimer implements node.Env.
func (l *lane) StopTimer(key string) { l.timers.Stop(key) }

// Logf implements node.Env; a sharded process's lane prefixes its group.
func (l *lane) Logf(format string, args ...any) {
	if l.st.sharded {
		format, args = "g%d: %s", []any{l.g, fmt.Sprintf(format, args...)}
	}
	l.st.logf(format, args...)
}

// table is what the mem and TCP clusters share: their processes, process
// i at index i, the clock they read, the accounting they report into, and
// the goroutines they wait for at Stop.
type table struct {
	stations []*station
	start    time.Time
	stats    *metrics.MessageStats
	sink     obs.Sink
	wg       sync.WaitGroup
}

// build makes the cluster's processes, automatons[i] process i, sending
// through net.
func (t *table) build(cfg Config, automatons []node.Automaton, net sender) {
	t.start = time.Now()
	t.stats = metrics.NewMessageStats(cfg.N)
	t.sink = obs.Tee(t.stats, cfg.Observer)
	t.stations = make([]*station, cfg.N)
	for i := range t.stations {
		logf := func(format string, args ...any) { log.Printf("p%d: %s", i, fmt.Sprintf(format, args...)) }
		if cfg.Quiet {
			logf = func(string, ...any) {}
		}
		t.stations[i] = newStation(node.ID(i), cfg.N, automatons[i], net, t.start, logf)
		t.stations[i].sink = t.sink
	}
}

// sent reports that from handed msg, of kind k, to the from→to link at
// now, and its trace context when msg is a node.Traced with a nonzero
// trace id: an untraced message costs one type assertion.
func (t *table) sent(now sim.Time, from, to node.ID, k obs.Kind, msg node.Message) {
	t.sink.OnSend(now, int(from), int(to), k)
	if tm, ok := msg.(node.Traced); ok {
		if trace, span := tm.TraceContext(); trace != 0 {
			t.sink.OnSendCtx(now, int(from), int(to), k, trace, span)
		}
	}
}

// Stats returns the cluster's message accounting.
func (t *table) Stats() *metrics.MessageStats { return t.stats }

// Crash makes process id inert (crash-stop), every group of a sharded one.
func (t *table) Crash(id node.ID) { t.stations[id].crash() }

// run boots every process: each lane's first turn on the caller, so every
// automaton has started and its boot sends are on the network when run
// returns, then a goroutine per lane, counted in wg.
func (t *table) run() {
	for _, s := range t.stations {
		for _, l := range s.lanes {
			l.boot()
		}
	}
	for _, s := range t.stations {
		t.wg.Add(len(s.lanes))
		for _, l := range s.lanes {
			go l.run(&t.wg)
		}
	}
}

// stop ends every node loop; wait on wg to see them exit.
func (t *table) stop() {
	for _, s := range t.stations {
		for _, l := range s.lanes {
			l.mbox.Close()
		}
	}
}
