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
type World struct {
	Kernel *sim.Kernel
	Fabric *network.Fabric
	Stats  *metrics.MessageStats

	// sink is Stats teed with the observer: the fabric reports messages
	// into it, the world its events. notes says whether Logf reports.
	sink  obs.Sink
	notes bool

	nodes     []*proc
	started   bool
	startAt   []sim.Time
	crashedAt map[ID]sim.Time
}

// proc is the per-process runtime state; it implements Env.
type proc struct {
	world     *World
	id        ID
	automaton Automaton
	alive     bool
	started   bool
	rate      float64
	timers    map[string]*timerRec
}

// timerRec is one named timer's slot. Keys are stable per protocol, so the
// record — and the callback bound once at creation — is reused across
// re-arms: arming a heartbeat timer every η allocates nothing.
type timerRec struct {
	p      *proc
	key    string
	handle sim.Handle
	run    func()
}

// fire delivers the timer tick. The kernel has already retired the handle,
// so a StopTimer or re-arm from inside the automaton behaves correctly.
func (r *timerRec) fire() {
	if !r.p.alive {
		return
	}
	r.p.automaton.Tick(r.key)
}

var _ Env = (*proc)(nil)

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
		Kernel:    k,
		Fabric:    fabric,
		Stats:     stats,
		sink:      sink,
		notes:     cfg.EnableTrace && cfg.Observer != nil,
		startAt:   cfg.StartAt,
		crashedAt: make(map[ID]sim.Time),
	}
	w.nodes = make([]*proc, cfg.N)
	for i := range w.nodes {
		rate := 1.0
		if cfg.ClockRates != nil {
			rate = cfg.ClockRates[i]
		}
		w.nodes[i] = &proc{
			world:  w,
			id:     ID(i),
			alive:  true,
			rate:   rate,
			timers: make(map[string]*timerRec),
		}
	}
	fabric.SetDeliver(w.deliverPayload)
	return w, nil
}

// N returns the number of processes.
func (w *World) N() int { return len(w.nodes) }

// SetAutomaton installs the protocol for process id. It must be called for
// every process before Start.
func (w *World) SetAutomaton(id ID, a Automaton) {
	if w.started {
		panic("node: SetAutomaton after Start")
	}
	w.nodes[id].automaton = a
}

// Start boots the system: every process starts at the current instant, or
// at its WorldConfig.StartAt time if staggered starts were configured.
// Immediate starts run in ascending id order.
func (w *World) Start() {
	if w.started {
		panic("node: world started twice")
	}
	for _, p := range w.nodes {
		if p.automaton == nil {
			panic(fmt.Sprintf("node: process %d has no automaton", p.id))
		}
	}
	w.started = true
	for _, p := range w.nodes {
		p := p
		at := w.Kernel.Now()
		if w.startAt != nil {
			at = w.startAt[p.id]
		}
		if at <= w.Kernel.Now() {
			p.boot()
			continue
		}
		w.Kernel.ScheduleAt(at, p.boot)
	}
}

// boot runs the automaton's Start callback unless the process crashed
// before its staggered start time.
func (p *proc) boot() {
	if !p.alive || p.started {
		return
	}
	p.started = true
	p.automaton.Start(p)
}

// Started reports whether id has booted.
func (w *World) Started(id ID) bool { return w.nodes[id].started }

// Crash kills process id immediately: its timers are cancelled and it
// neither sends nor receives from now on (crash-stop, no recovery). This
// is where the observer learns of it: one obs.Down.
func (w *World) Crash(id ID) {
	p := w.nodes[id]
	if !p.alive {
		return
	}
	p.alive = false
	for _, r := range p.timers {
		r.handle.Cancel()
	}
	p.timers = make(map[string]*timerRec)
	w.crashedAt[id] = w.Kernel.Now()
	w.sink.OnEvent(obs.Event{T: w.Kernel.Now(), What: obs.Down, Proc: int(id), Peer: -1})
}

// CrashAt schedules a crash of id at virtual instant t.
func (w *World) CrashAt(id ID, t sim.Time) {
	w.Kernel.ScheduleAt(t, func() { w.Crash(id) })
}

// Alive reports whether id has not crashed.
func (w *World) Alive(id ID) bool { return w.nodes[id].alive }

// CrashedAt returns the crash instant of id, if it crashed.
func (w *World) CrashedAt(id ID) (sim.Time, bool) {
	t, ok := w.crashedAt[id]
	return t, ok
}

// Correct returns the ids of processes that are still alive, in ascending
// order. At the end of a run these are the "correct" processes in the
// crash-stop sense.
func (w *World) Correct() []ID {
	var out []ID
	for _, p := range w.nodes {
		if p.alive {
			out = append(out, p.id)
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
func (w *World) Env(id ID) Env { return w.nodes[id] }

func (w *World) deliverPayload(from, to int, payload any) {
	p := w.nodes[to]
	if !p.alive || !p.started {
		return
	}
	m, ok := payload.(Message)
	if !ok {
		panic(fmt.Sprintf("node: payload %T delivered to %d is not a Message", payload, to))
	}
	p.automaton.Deliver(ID(from), m)
}

// --- Env implementation -------------------------------------------------

func (p *proc) ID() ID { return p.id }

func (p *proc) N() int { return len(p.world.nodes) }

func (p *proc) Now() sim.Time { return p.world.Kernel.Now() }

func (p *proc) Send(to ID, m Message) {
	if !p.alive || !p.started {
		return
	}
	if to == p.id {
		panic(fmt.Sprintf("node: process %d sending to itself", p.id))
	}
	p.world.Fabric.Send(int(p.id), int(to), m.KindID(), m)
}

func (p *proc) Broadcast(m Message) {
	for to := 0; to < len(p.world.nodes); to++ {
		if ID(to) != p.id {
			p.Send(ID(to), m)
		}
	}
}

func (p *proc) SetTimer(key string, d time.Duration) {
	if !p.alive {
		return
	}
	r, ok := p.timers[key]
	if !ok {
		r = &timerRec{p: p, key: key}
		r.run = r.fire
		p.timers[key] = r
	} else {
		r.handle.Cancel()
	}
	if p.rate != 1.0 {
		d = time.Duration(float64(d) * p.rate)
	}
	r.handle = p.world.Kernel.Schedule(d, r.run)
}

func (p *proc) StopTimer(key string) {
	if r, ok := p.timers[key]; ok {
		r.handle.Cancel()
	}
}

func (p *proc) Logf(format string, args ...any) {
	w := p.world
	if !w.notes {
		return
	}
	w.sink.OnEvent(obs.Event{T: w.Kernel.Now(), What: obs.Note, Proc: int(p.id), Peer: -1, Text: fmt.Sprintf(format, args...)})
}
