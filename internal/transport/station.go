// Package transport runs the protocol automatons on real time and real
// concurrency instead of the deterministic simulator: wall-clock timers
// and real TCP sockets on the loopback interface, with delay and loss
// injected per link by an optional faultline.Injector. A process is a
// station: one automaton on one node loop, a goroutine of its own.
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

	"repro/internal/loop"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
)

// event is one unit of work for a node loop: a delivery, a timer expiry,
// or a reboot carrying the automaton of the next incarnation.
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

// station is one process and its node loop: a single goroutine consumes
// the mailbox and invokes the automaton, so the node.Env single-threading
// contract holds. It works in turns (see node.TurnEnd and DESIGN.md
// "Turns"). The station is its automaton's Env, reports its own going down
// and coming up, and reboots.
type station struct {
	id        node.ID
	n         int
	automaton node.Automaton
	net       sender
	start     time.Time
	logf      func(format string, args ...any)
	// sink is the cluster's, set before run (obs.Nop until then): the
	// station reports its own going down and coming up.
	sink obs.Sink
	mbox *loop.Mailbox[event]

	// life is twice the number of reboots, plus one while the process is
	// crashed; the automaton acts only while it equals inc, the value of
	// the automaton's own incarnation, which the node loop moves on when
	// it swaps in the next.
	life atomic.Uint64
	inc  uint64

	// timers and outbox — what the automaton sent this turn, in order,
	// not yet on the network — are touched only from the node loop.
	timers *loop.Timers
	outbox []held
}

var _ node.Env = (*station)(nil)

func newStation(id node.ID, n int, a node.Automaton, net sender, start time.Time, logf func(string, ...any)) *station {
	s := &station{id: id, n: n, automaton: a, net: net, start: start, logf: logf, sink: obs.Nop{}, mbox: loop.NewMailbox[event]()}
	s.timers = loop.NewTimers(func(key string) { s.mbox.Push(event{timerKey: key}) })
	return s
}

// deliverAll enqueues, in order, the messages one socket read decoded,
// with one mailbox push, so what a peer flushed with one write is one turn
// here rather than whatever prefix of it the node loop happened to wake up
// on. The batch is zeroed for the caller to reuse without retaining the
// messages.
func (s *station) deliverAll(batch []event) {
	s.mbox.PushAll(batch)
	clear(batch)
}

// crash makes the process inert (crash-stop). Every way a process goes
// down — TCPCluster.Crash, a faultline-scheduled crash or restart — ends
// here, so this is where the observer learns of it, once per crash.
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

// reboot restarts the process with a fresh automaton — typically one
// rebuilt from the process's durable store. Safe from any goroutine. The
// process is up at once, and the node loop swaps in the new automaton;
// until it has, it drops what reaches it, as a crashed process does.
func (s *station) reboot(a node.Automaton) {
	v := s.life.Load()
	for !s.life.CompareAndSwap(v, (v|1)+1) { // up, in the next incarnation
		v = s.life.Load()
	}
	s.emit(obs.Up) // before the new Start: the new incarnation's events follow it
	s.mbox.Push(event{reboot: a})
}

// Now is the process clock: wall-clock time since the cluster started.
func (s *station) Now() sim.Time { return sim.Time(time.Since(s.start).Nanoseconds()) }

// boot is the station's first turn: Start, the end-of-turn signal,
// release. It runs before the node loop exists, on the goroutine that
// starts the cluster; what reaches the mailbox meanwhile waits for the
// loop.
func (s *station) boot() {
	s.automaton.Start(s)
	s.endTurn()
}

// run is the node loop; it returns when the mailbox closes.
func (s *station) run(wg *sync.WaitGroup) {
	defer wg.Done()
	loop.Run(s.mbox, s.dispatch, s.endTurn)
}

// live reports whether the automaton may act: the process is up, and in
// the incarnation the automaton belongs to.
func (s *station) live() bool { return s.life.Load() == s.inc }

func (s *station) dispatch(e event) {
	switch {
	case e.reboot != nil:
		// Handled whatever the crash flag says: the whole point is waking
		// a crashed process.
		s.rebootNow(e.reboot)
	case e.timerKey != "":
		// Fired first: an expiry a crashed process drops still comes off
		// the timer table's books.
		if s.timers.Fired(e.timerKey) && s.live() {
			s.automaton.Tick(e.timerKey)
		}
	case s.live():
		s.automaton.Deliver(e.from, e.msg)
	}
}

// endTurn gives the automaton the end-of-turn signal and then releases
// what it sent during the turn. A crash in mid-turn drops whatever has not
// reached the network by then, like the RAM it was in: had the signal
// made those sends' records durable they are merely unseen, and where it
// never ran the records were never written either (DESIGN.md "Turns").
func (s *station) endTurn() {
	if s.live() {
		s.automaton.Tick(node.TurnEnd)
	}
	for i, h := range s.outbox {
		if s.live() {
			s.net.send(s.id, h.to, h.m)
		}
		s.outbox[i] = held{}
	}
	s.outbox = s.outbox[:0]
}

// rebootNow swaps in the automaton of the next incarnation, on the node
// loop: every timer and every unreleased send of the previous one is
// dropped (its RAM died with it), and the new automaton boots exactly like
// a fresh process — within the current turn, whose end releases what its
// Start sent. Should the process have crashed again since the reboot, it
// stays down.
func (s *station) rebootNow(a node.Automaton) {
	s.timers.StopAll()
	clear(s.outbox)
	s.outbox = s.outbox[:0]
	s.automaton = a
	s.inc += 2
	s.automaton.Start(s)
}

// --- node.Env -----------------------------------------------------------

// ID implements node.Env.
func (s *station) ID() node.ID { return s.id }

// N implements node.Env.
func (s *station) N() int { return s.n }

// Send implements node.Env: m waits in the outbox for the end of the turn.
func (s *station) Send(to node.ID, m node.Message) {
	if !s.live() {
		return
	}
	if to == s.id {
		panic(fmt.Sprintf("transport: process %d sending to itself", s.id))
	}
	s.outbox = append(s.outbox, held{to, m})
}

// Broadcast implements node.Env, in ascending id order.
func (s *station) Broadcast(m node.Message) {
	for to := 0; to < s.n; to++ {
		if node.ID(to) != s.id {
			s.Send(node.ID(to), m)
		}
	}
}

// SetTimer implements node.Env. It must be called from the node loop (the
// automaton's callbacks), which is the node.Env contract.
func (s *station) SetTimer(key string, d time.Duration) {
	if s.live() {
		s.timers.Set(key, d)
	}
}

// StopTimer implements node.Env.
func (s *station) StopTimer(key string) { s.timers.Stop(key) }

// Logf implements node.Env.
func (s *station) Logf(format string, args ...any) { s.logf(format, args...) }

// table is the cluster's processes, process i at index i, the clock they
// read, the accounting they report into, and the goroutines Stop waits
// for.
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

// Crash makes process id inert (crash-stop).
func (t *table) Crash(id node.ID) { t.stations[id].crash() }

// run boots every process: each station's first turn on the caller, so
// every automaton has started and its boot sends are on the network when
// run returns, then a node loop per station, counted in wg.
func (t *table) run() {
	for _, s := range t.stations {
		s.boot()
	}
	t.wg.Add(len(t.stations))
	for _, s := range t.stations {
		go s.run(&t.wg)
	}
}

// stop ends every node loop; wait on wg to see them exit.
func (t *table) stop() {
	for _, s := range t.stations {
		s.mbox.Close()
	}
}
