package node

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Host is what a runtime supplies every process it runs, besides its
// timers: the clock, the network and the log.
type Host interface {
	Now() sim.Time
	// Transmit puts m, sent by from, on the from→to link.
	Transmit(from, to ID, m Message)
	// Logs reports whether Log records anything: Logf formats only then.
	Logs() bool
	Log(id ID, text string)
}

// Timers is a process's named one-shot timers on its runtime's clock; Set
// supersedes the key's deadline, and an expiry comes back as a turn.
type Timers interface {
	Set(key string, d time.Duration)
	Stop(key string)
	StopAll()
}

// Outbox holds what the open turn has sent, in order. World, which runs
// one turn at a time, gives every process the same one.
type Outbox struct {
	turn *Proc // whose turn is open; nil between turns
	held []held
}

type held struct {
	to ID
	m  Message
}

// Proc is a process's node loop, the one every runtime runs: its
// automaton's Env, run in turns (TurnEnd, DESIGN.md "Turns"). The runtime
// hands it each event — Boot, Receive, Fire, Reboot — and closes the turn
// with EndTurn. A send while no turn of the process is open leaves at
// once. Proc keeps the incarnation and reports going down and coming up.
type Proc struct {
	id        ID
	n         int
	automaton Automaton
	host      Host
	timers    Timers
	out       *Outbox
	sink      obs.Sink

	// life is twice the number of reboots, plus one while crashed; the
	// automaton acts only while it equals inc, its own incarnation's. Only
	// life is touched off the node loop (Crash, Revive).
	life    atomic.Uint64
	inc     uint64
	started bool
}

// Init makes p process id of n, running a on host, with its timers in
// timers, its turns' sends held in out, its going down and up told to sink.
func (p *Proc) Init(id ID, n int, a Automaton, host Host, timers Timers, out *Outbox, sink obs.Sink) {
	p.id, p.n, p.automaton, p.host, p.timers, p.out, p.sink = id, n, a, host, timers, out, sink
}

// live reports whether the automaton may act: booted, up, and in the
// incarnation it belongs to.
func (p *Proc) live() bool { return p.started && p.life.Load() == p.inc }

// Down reports whether the process is crashed. Safe from any goroutine.
func (p *Proc) Down() bool { return p.life.Load()%2 == 1 }

// Boot is the first turn: Start, then EndTurn. A process that crashed
// before it booted never does.
func (p *Proc) Boot() {
	if p.started || p.life.Load() != p.inc {
		return
	}
	p.started = true
	p.out.turn = p
	p.automaton.Start(p)
	p.EndTurn()
}

// Receive delivers m within the process's turn, opening it if need be.
func (p *Proc) Receive(from ID, m Message) {
	p.out.turn = p
	if p.live() {
		p.automaton.Deliver(from, m)
	}
}

// Fire gives the automaton an expiry its timer table owes it, within the
// process's turn, opening it if need be.
func (p *Proc) Fire(key string) {
	p.out.turn = p
	if p.live() {
		p.automaton.Tick(key)
	}
}

// EndTurn gives the automaton the end-of-turn signal, then releases what
// it sent in the turn. A crash in mid-turn drops what has not left, like
// the RAM it was in: records the signal made durable are merely unseen.
func (p *Proc) EndTurn() {
	if p.live() {
		p.automaton.Tick(TurnEnd)
	}
	out := p.out
	out.turn = nil
	for i, h := range out.held {
		if p.live() {
			p.host.Transmit(p.id, h.to, h.m)
		}
		out.held[i] = held{}
	}
	out.held = out.held[:0]
}

// Crash makes the process inert (crash-stop); every way down ends here,
// so the observer learns of it once per crash. Safe from any goroutine.
func (p *Proc) Crash() {
	for v := p.life.Load(); v%2 == 0; v = p.life.Load() {
		if p.life.CompareAndSwap(v, v+1) {
			p.sink.OnEvent(obs.Event{T: p.Now(), What: obs.Down, Proc: int(p.id), Peer: -1})
			return
		}
	}
}

// Revive brings the process up in its next incarnation, dropping what
// reaches it until Reboot. Safe from any goroutine.
func (p *Proc) Revive() {
	v := p.life.Load()
	for !p.life.CompareAndSwap(v, (v|1)+1) {
		v = p.life.Load()
	}
	// Before the new Start: the new incarnation's events follow it.
	p.sink.OnEvent(obs.Event{T: p.Now(), What: obs.Up, Proc: int(p.id), Peer: -1})
}

// Reboot swaps in a, the next incarnation's automaton, within the turn:
// the previous one's timers and unreleased sends die with its RAM, and a
// boots like a fresh process — down, if it crashed again since Revive.
func (p *Proc) Reboot(a Automaton) {
	p.timers.StopAll()
	clear(p.out.held)
	p.out.held = p.out.held[:0]
	p.out.turn = p
	p.automaton, p.started = a, true
	p.inc += 2
	a.Start(p)
}

// ID, N, Now, Send, Broadcast, SetTimer, StopTimer and Logf implement Env.
func (p *Proc) ID() ID        { return p.id }
func (p *Proc) N() int        { return p.n }
func (p *Proc) Now() sim.Time { return p.host.Now() }

// Send holds m for the end of the process's turn; outside one, m leaves
// at once.
func (p *Proc) Send(to ID, m Message) {
	if !p.live() {
		return
	}
	if to == p.id {
		panic(fmt.Sprintf("node: process %d sending to itself", p.id))
	}
	if p.out.turn == p {
		p.out.held = append(p.out.held, held{to, m})
		return
	}
	p.host.Transmit(p.id, to, m)
}

func (p *Proc) Broadcast(m Message) {
	for to := 0; to < p.n; to++ {
		if ID(to) != p.id {
			p.Send(ID(to), m)
		}
	}
}

func (p *Proc) SetTimer(key string, d time.Duration) {
	if p.live() {
		p.timers.Set(key, d)
	}
}

func (p *Proc) StopTimer(key string) { p.timers.Stop(key) }

func (p *Proc) Logf(format string, args ...any) {
	if p.host.Logs() {
		p.host.Log(p.id, fmt.Sprintf(format, args...))
	}
}
