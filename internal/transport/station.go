// Package transport runs the protocol automatons on real time and real
// concurrency instead of the deterministic simulator: wall-clock timers
// and real TCP sockets on the loopback interface, with delay and loss
// injected per link by an optional faultline.Injector. A process is a
// station: one automaton on the node loop every runtime shares
// (node.Proc), driven by a goroutine of its own from a mailbox.
// Messages cross process boundaries through the binary codec
// (internal/wire), so live runs exercise serialization exactly as a
// deployment would. The examples/livecluster program demonstrates it.
package transport

import (
	"sync"

	"repro/internal/loop"
	"repro/internal/node"
	"repro/internal/obs"
)

// event is one unit of work for a node loop: a delivery, a timer expiry,
// or a reboot carrying the automaton of the next incarnation.
type event struct {
	from     node.ID
	msg      node.Message
	timerKey string
	reboot   node.Automaton
}

// station is one process: its node loop (node.Proc) fed from a mailbox
// by a goroutine of its own, so the node.Env single-threading contract
// holds. Its timers are wall-clock, and expire into the mailbox.
type station struct {
	node.Proc
	mbox   *loop.Mailbox[event]
	timers *loop.Timers
	out    node.Outbox
}

func newStation(id node.ID, n int, a node.Automaton, host node.Host, sink obs.Sink) *station {
	s := &station{mbox: loop.NewMailbox[event]()}
	s.timers = loop.NewTimers(func(key string) { s.mbox.Push(event{timerKey: key}) })
	s.Init(id, n, a, host, s.timers, &s.out, sink)
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

// run is the node loop; it returns when the mailbox closes. Boot, the
// station's first turn, has run before it, on the goroutine that starts
// the cluster; what reached the mailbox meanwhile waited for the loop.
func (s *station) run(wg *sync.WaitGroup) {
	defer wg.Done()
	loop.Run(s.mbox, s.dispatch, s.EndTurn)
}

func (s *station) dispatch(e event) {
	switch {
	case e.reboot != nil:
		s.Reboot(e.reboot)
	case e.timerKey != "":
		// Asked even when crashed: the expiry comes off the table's books.
		if s.timers.Fired(e.timerKey) {
			s.Fire(e.timerKey)
		}
	default:
		s.Receive(e.from, e.msg)
	}
}
