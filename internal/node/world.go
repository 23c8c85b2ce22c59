package node

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
)

// WorldConfig configures a simulated system.
type WorldConfig struct {
	// N is the number of processes (required, > 1).
	N int
	// Seed drives all randomness (link delays, losses).
	Seed int64
	// GST is the global stabilization time for eventually-timely links.
	GST sim.Time
	// DefaultLink is applied to every link; individual links can be
	// overridden through World.Fabric afterwards.
	DefaultLink network.Profile
	// EnableTrace makes Env.Logf report its text to Observer as obs.Note
	// events (off by default, and then Logf returns before it formats
	// anything). The events land where Observer puts them — scenario.Build
	// hands them, with the message events, to a span ring.
	EnableTrace bool
	// ClockRates optionally skews each process's timer durations by a
	// multiplicative factor (1.0 = nominal). Length must be N if set.
	ClockRates []float64
	// StartAt optionally staggers process boot times; length must be N
	// if set. Messages reaching a process before it starts are lost
	// (the process "does not exist yet"), which is how real deployments
	// behave during rollout.
	StartAt []sim.Time
	// Observer is an optional extra obs.Sink teed with the world's stats;
	// it sees every send/deliver/drop, every crash (obs.Down) and every
	// note.
	Observer obs.Sink
}

// World is a complete simulated system: kernel, fabric, and n processes
// running automatons. It is single-threaded and deterministic per seed.
// Every boot, delivery and timer expiry is a turn of one event (Proc):
// what its handler sends leaves, in order, once Tick(TurnEnd) returns; a
// send from outside any turn (a kernel callback through Env) at once.
type World struct {
	Kernel *sim.Kernel
	Fabric *network.Fabric
	Stats  *metrics.MessageStats

	// sink is Stats teed with the observer: the fabric reports messages
	// into it, the world its events. notes says whether Logf reports.
	sink  obs.Sink
	notes bool

	procs   []simProc
	out     Outbox // every process's: one turn runs at a time
	started bool
	startAt []sim.Time
}

// simProc is a process and its timer table on the kernel's clock, each
// duration skewed by the process's clock rate.
type simProc struct {
	Proc
	kernel    *sim.Kernel
	rate      float64
	timers    map[string]*timerRec
	crashedAt sim.Time
}

// timerRec is one named timer's slot. Keys are stable per protocol, so the
// record — and the callback bound once at creation — is reused across
// re-arms: arming a heartbeat timer every η allocates nothing.
type timerRec struct {
	p      *simProc
	key    string
	handle sim.Handle
	run    func()
}

// fire runs the expiry's turn. The kernel has retired the handle, so a
// StopTimer or re-arm from inside the automaton behaves correctly.
func (r *timerRec) fire() {
	r.p.Fire(r.key)
	r.p.EndTurn()
}

// NewWorld builds a world from cfg. Automatons are installed with
// SetAutomaton and the system boots on Start.
func NewWorld(cfg WorldConfig) (*World, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("node: world needs at least 2 processes, got %d", cfg.N)
	}
	if cfg.ClockRates != nil && len(cfg.ClockRates) != cfg.N {
		return nil, fmt.Errorf("node: ClockRates has %d entries for %d processes", len(cfg.ClockRates), cfg.N)
	}
	if cfg.StartAt != nil && len(cfg.StartAt) != cfg.N {
		return nil, fmt.Errorf("node: StartAt has %d entries for %d processes", len(cfg.StartAt), cfg.N)
	}
	k := sim.NewKernel(cfg.Seed)
	stats := metrics.NewMessageStats(cfg.N)
	sink := obs.Tee(stats, cfg.Observer)
	fabric, err := network.NewFabric(k, cfg.N, cfg.DefaultLink, sink)
	if err != nil {
		return nil, err
	}
	fabric.SetGST(cfg.GST)
	w := &World{
		Kernel:  k,
		Fabric:  fabric,
		Stats:   stats,
		sink:    sink,
		notes:   cfg.EnableTrace && cfg.Observer != nil,
		procs:   make([]simProc, cfg.N),
		out:     Outbox{held: make([]held, 0, 2*cfg.N)},
		startAt: cfg.StartAt,
	}
	for i := range w.procs {
		p := &w.procs[i]
		p.kernel, p.rate, p.timers = k, 1.0, make(map[string]*timerRec)
		if cfg.ClockRates != nil {
			p.rate = cfg.ClockRates[i]
		}
		p.Init(ID(i), cfg.N, nil, (*host)(w), p, &w.out, sink)
	}
	fabric.SetDeliver(w.deliverPayload)
	return w, nil
}

// SetAutomaton installs the protocol for process id. It must be called for
// every process before Start.
func (w *World) SetAutomaton(id ID, a Automaton) {
	if w.started {
		panic("node: SetAutomaton after Start")
	}
	w.procs[id].automaton = a
}

// Start boots the system: every process starts at the current instant, or
// at its WorldConfig.StartAt time if staggered starts were configured.
// Immediate starts run in ascending id order.
func (w *World) Start() {
	if w.started {
		panic("node: world started twice")
	}
	for i := range w.procs {
		if w.procs[i].automaton == nil {
			panic(fmt.Sprintf("node: process %d has no automaton", i))
		}
	}
	w.started = true
	for i := range w.procs {
		p := &w.procs[i]
		if w.startAt == nil || w.startAt[i] <= w.Kernel.Now() {
			p.Boot()
		} else {
			w.Kernel.ScheduleAt(w.startAt[i], p.Boot)
		}
	}
}

// Started reports whether id has booted.
func (w *World) Started(id ID) bool { return w.procs[id].started }

// Crash kills process id immediately (crash-stop, no recovery): its
// timers are cancelled, and the observer is told one obs.Down.
func (w *World) Crash(id ID) {
	p := &w.procs[id]
	if p.Down() {
		return
	}
	p.StopAll()
	p.crashedAt = w.Kernel.Now()
	p.Crash()
}

// CrashAt schedules a crash of id at virtual instant t.
func (w *World) CrashAt(id ID, t sim.Time) {
	w.Kernel.ScheduleAt(t, func() { w.Crash(id) })
}

// Alive reports whether id has not crashed.
func (w *World) Alive(id ID) bool { return !w.procs[id].Down() }

// CrashedAt returns the crash instant of id, if it crashed.
func (w *World) CrashedAt(id ID) (sim.Time, bool) {
	return w.procs[id].crashedAt, w.procs[id].Down()
}

// Correct returns the ids of the processes still alive, ascending: at the
// end of a run, the correct ones in the crash-stop sense.
func (w *World) Correct() []ID {
	var out []ID
	for i := range w.procs {
		if !w.procs[i].Down() {
			out = append(out, ID(i))
		}
	}
	return out
}

// RunFor advances the simulation by d.
func (w *World) RunFor(d time.Duration) sim.RunResult { return w.Kernel.RunFor(d) }

// RunUntil advances the simulation to horizon or until stop returns true.
func (w *World) RunUntil(horizon sim.Time, stop func() bool) sim.RunResult {
	return w.Kernel.RunUntil(horizon, stop)
}

// Env returns the runtime handle of process id, mainly for tests that need
// to poke automatons directly.
func (w *World) Env(id ID) Env { return &w.procs[id].Proc }

// deliverPayload runs the delivery's turn.
func (w *World) deliverPayload(from, to int, payload any) {
	p := &w.procs[to].Proc
	p.Receive(ID(from), payload.(Message))
	p.EndTurn()
}

// host is the world as its processes' Host.
type host World

func (h *host) Now() sim.Time { return h.Kernel.Now() }
func (h *host) Logs() bool    { return h.notes }

func (h *host) Transmit(from, to ID, m Message) { h.Fabric.Send(int(from), int(to), m.KindID(), m) }

func (h *host) Log(id ID, text string) {
	h.sink.OnEvent(obs.Event{T: h.Kernel.Now(), What: obs.Note, Proc: int(id), Peer: -1, Text: text})
}

func (p *simProc) Set(key string, d time.Duration) {
	r := p.timers[key]
	if r == nil {
		r = &timerRec{p: p, key: key}
		r.run = r.fire
		p.timers[key] = r
	}
	r.handle.Cancel() // a zero handle's Cancel is a no-op
	if p.rate != 1.0 {
		d = time.Duration(float64(d) * p.rate)
	}
	r.handle = p.kernel.Schedule(d, r.run)
}

func (p *simProc) Stop(key string) {
	if r, ok := p.timers[key]; ok {
		r.handle.Cancel()
	}
}

func (p *simProc) StopAll() {
	for _, r := range p.timers {
		r.handle.Cancel()
	}
}
