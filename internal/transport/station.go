// Package transport runs the protocol automatons on real time and real
// concurrency instead of the deterministic simulator: one goroutine per
// process, wall-clock timers, and either an in-memory network with
// injected delay/loss or real TCP sockets on the loopback interface.
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
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
)

// event is one unit of work for a node loop: a delivery, a timer expiry,
// or a reboot carrying the next incarnation's automaton.
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

// ConcurrentDeliverer is implemented by automatons that can accept
// deliveries from arbitrary goroutines — the multi-group sharded engine
// (internal/consensus/group), which demuxes each message into a per-group
// mailbox. When a station's automaton implements it, inbound messages are
// handed over directly from the transport's receive goroutines (TCP read
// loops, mem delivery timers), skipping the station
// loop's serialization point entirely. DeliverConcurrent reports whether
// the message was consumed; on false the message takes the ordinary
// station-loop path. Such an automaton also sends from goroutines of its
// own, which the station's turns know nothing of: its sends go straight
// to the network, and holding them for a turn's end is its own loops' job.
type ConcurrentDeliverer interface {
	DeliverConcurrent(from node.ID, m node.Message) bool
}

// fastBox wraps the fast-path deliverer for atomic.Value storage (which
// needs one consistent concrete type across stores).
type fastBox struct{ d ConcurrentDeliverer }

func boxOf(a node.Automaton) fastBox {
	d, _ := a.(ConcurrentDeliverer)
	return fastBox{d: d}
}

// station runs one process: a single goroutine consumes the mailbox and
// invokes the automaton, so the node.Env single-threading contract holds.
// It works in turns (see node.TurnEnd and DESIGN.md "Turns").
type station struct {
	id        node.ID
	n         int
	automaton node.Automaton
	mbox      *loop.Mailbox[event]
	net       sender
	start     time.Time
	logf      func(format string, args ...any)
	// events is the cluster observer's event extension (nil when it has
	// none), set by the cluster before run: the station reports its own
	// going down and coming up.
	events obs.EventSink

	// timers and outbox — what the automaton sent this turn, in order,
	// not yet on the network — are touched only from the node loop.
	timers *loop.Timers
	outbox []held

	crashed atomic.Bool
	done    chan struct{}

	// fast holds the automaton's ConcurrentDeliverer (boxed, nil inside
	// the box when unsupported). It is read by receive goroutines on
	// every delivery and swapped on reboot, hence the atomic.
	fast atomic.Value // of fastBox
}

var _ node.Env = (*station)(nil)

func newStation(id node.ID, n int, a node.Automaton, net sender, start time.Time, logf func(string, ...any)) *station {
	if logf == nil {
		logf = func(format string, args ...any) {
			log.Printf("p%d: %s", id, fmt.Sprintf(format, args...))
		}
	}
	s := &station{
		id:        id,
		n:         n,
		automaton: a,
		mbox:      loop.NewMailbox[event](),
		net:       net,
		start:     start,
		logf:      logf,
		done:      make(chan struct{}),
	}
	s.timers = loop.NewTimers(func(key string) { s.mbox.Push(event{timerKey: key}) })
	s.fast.Store(boxOf(a))
	return s
}

// run is the node loop; it returns when the mailbox closes. Booting is
// the first turn.
func (s *station) run(wg *sync.WaitGroup) {
	defer wg.Done()
	defer close(s.done)
	s.automaton.Start(s)
	s.endTurn()
	loop.Run(s.mbox, s.dispatch, s.endTurn)
}

func (s *station) dispatch(e event) {
	switch {
	case e.reboot != nil:
		// Handled before the crashed check: the whole point is waking a
		// crashed process. Runs on the node loop, so the new automaton's
		// Start sees the same single-threaded Env as a boot-time Start.
		s.rebootNow(e.reboot)
	case e.timerKey != "":
		// Fired first: an expiry a crashed process drops still comes off
		// the timer table's books.
		if s.timers.Fired(e.timerKey) && !s.crashed.Load() {
			s.automaton.Tick(e.timerKey)
		}
	case !s.crashed.Load():
		s.automaton.Deliver(e.from, e.msg)
	}
}

// endTurn gives the automaton the end-of-turn signal and then releases
// what it sent during the turn. A crash in mid-turn drops whatever has not
// reached the network by then, like the RAM it was in: had the signal
// made those sends' records durable they are merely unseen, and where it
// never ran the records were never written either (DESIGN.md "Turns").
func (s *station) endTurn() {
	if !s.crashed.Load() {
		s.automaton.Tick(node.TurnEnd)
	}
	for i, h := range s.outbox {
		if !s.crashed.Load() {
			s.net.send(s.id, h.to, h.m)
		}
		s.outbox[i] = held{}
	}
	s.outbox = s.outbox[:0]
}

// deliver enqueues an inbound message. When the automaton supports
// concurrent delivery (the sharded group engine), the message is demuxed
// on this goroutine — the transport's receive path — without waking the
// station loop; ordering within a (peer, group) pair is preserved because
// each TCP connection is read by one goroutine. A crashed station drops
// on the fast path exactly as dispatch would.
func (s *station) deliver(from node.ID, m node.Message) {
	if d := s.fast.Load().(fastBox).d; d != nil {
		if s.crashed.Load() {
			return
		}
		if d.DeliverConcurrent(from, m) {
			return
		}
	}
	s.mbox.Push(event{from: from, msg: m})
}

// deliverAll enqueues, in order, the messages one socket read decoded:
// one mailbox push, so what a peer flushed with one write is one turn here
// rather than whatever prefix of it the node loop happened to wake up on.
// A concurrent-delivery automaton keeps its per-message path. The batch is
// zeroed for the caller to reuse without retaining the messages.
func (s *station) deliverAll(batch []event) {
	if s.fast.Load().(fastBox).d != nil {
		for _, e := range batch {
			s.deliver(e.from, e.msg)
		}
	} else {
		s.mbox.PushAll(batch)
	}
	clear(batch)
}

// crash makes the station inert (crash-stop). Every way a process goes
// down — Cluster.Crash, a faultline-scheduled crash or restart — ends
// here, so this is where the observer learns of it, once per crash.
func (s *station) crash() {
	if !s.crashed.Swap(true) {
		s.emit(obs.Down)
	}
}

func (s *station) emit(what obs.What) {
	if s.events != nil {
		s.events.OnEvent(obs.Event{T: s.Now(), What: what, Proc: int(s.id), Peer: -1})
	}
}

// reboot schedules a restart of the station with a fresh automaton —
// typically one rebuilt from the process's durable store. Safe from any
// goroutine; the swap itself happens on the node loop.
func (s *station) reboot(a node.Automaton) {
	s.mbox.Push(event{reboot: a})
}

// rebootNow performs the restart on the node loop: every timer and every
// unreleased send of the previous incarnation is dropped (its RAM died
// with it), the automaton is swapped, and the new incarnation boots
// exactly like a fresh process — within the current turn, whose end
// releases what its Start sent.
func (s *station) rebootNow(a node.Automaton) {
	s.timers.StopAll()
	clear(s.outbox)
	s.outbox = s.outbox[:0]
	s.automaton = a
	s.fast.Store(boxOf(a)) // receive goroutines route to the new incarnation
	s.crashed.Store(false)
	s.emit(obs.Up) // before Start: the new incarnation's events follow it
	s.automaton.Start(s)
}

// stop terminates the node loop.
func (s *station) stop() {
	s.mbox.Close()
	<-s.done
}

// --- node.Env -----------------------------------------------------------

// ID implements node.Env.
func (s *station) ID() node.ID { return s.id }

// N implements node.Env.
func (s *station) N() int { return s.n }

// Now implements node.Env: wall-clock time since the cluster started.
func (s *station) Now() sim.Time { return sim.Time(time.Since(s.start).Nanoseconds()) }

// Send implements node.Env: m waits in the outbox for the end of the turn.
func (s *station) Send(to node.ID, m node.Message) {
	if s.crashed.Load() {
		return
	}
	if to == s.id {
		panic(fmt.Sprintf("transport: process %d sending to itself", s.id))
	}
	if s.fast.Load().(fastBox).d != nil {
		s.net.send(s.id, to, m) // not from the node loop (see ConcurrentDeliverer)
		return
	}
	s.outbox = append(s.outbox, held{to, m})
}

// Broadcast implements node.Env.
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
	if s.crashed.Load() {
		return
	}
	s.timers.Set(key, d)
}

// StopTimer implements node.Env.
func (s *station) StopTimer(key string) { s.timers.Stop(key) }

// Logf implements node.Env.
func (s *station) Logf(format string, args ...any) {
	s.logf(format, args...)
}
