package group

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loop"
	"repro/internal/node"
	"repro/internal/sim"
)

// Config parameterizes an Engine.
type Config struct {
	// Groups is the shard count G (required, >= 1).
	Groups int
	// Build constructs group g's automaton — typically an Omega detector
	// composed with an rsm.Node (and, for durable configurations, a
	// per-group durable.Store opened on the group's own WAL directory).
	// It runs once per group inside New, in group order, on the caller's
	// goroutine; the automaton it returns lives in the group's logical id
	// space and is driven only by that group's loop goroutine.
	Build func(g int) node.Automaton
}

// Engine is the sharded write engine: one node.Automaton that runs G
// independent group automatons, each on its own event-loop goroutine with
// its own mailbox, all multiplexed over the process's shared transport
// links via Msg wrappers.
//
// Delivery is two-tier. The transport's node loop can hand messages over
// through Deliver like any automaton; transports that support it instead
// call DeliverConcurrent from their receive goroutines (see
// transport.ConcurrentDeliverer), demuxing frames straight into the
// per-group mailboxes without serializing through the single station
// loop.
type Engine struct {
	cfg     Config
	workers []*worker

	env     node.Env
	n       int
	started atomic.Bool
	halted  atomic.Bool
	wg      sync.WaitGroup
}

var _ node.Automaton = (*Engine)(nil)

// New builds an engine; Build runs immediately for every group so the
// caller can capture references to the per-group automatons it creates.
func New(cfg Config) *Engine {
	if cfg.Groups < 1 {
		panic(fmt.Sprintf("group: Groups = %d, need at least 1", cfg.Groups))
	}
	if cfg.Build == nil {
		panic("group: Config.Build is required")
	}
	e := &Engine{cfg: cfg, workers: make([]*worker, cfg.Groups)}
	for g := range e.workers {
		w := &worker{eng: e, g: g, auto: cfg.Build(g), mbox: loop.NewMailbox[gevent]()}
		w.timers = loop.NewTimers(func(key string) { w.mbox.Push(gevent{timerKey: key}) })
		e.workers[g] = w
	}
	return e
}

// Groups returns the shard count.
func (e *Engine) Groups() int { return e.cfg.Groups }

// Start implements node.Automaton: it records the shared Env and spawns
// one loop goroutine per group. Each group automaton's Start runs on its
// own loop, seeing a single-threaded Env exactly as an unsharded process
// would.
func (e *Engine) Start(env node.Env) {
	if !e.started.CompareAndSwap(false, true) {
		return
	}
	e.env = env
	e.n = env.N()
	e.wg.Add(len(e.workers))
	for _, w := range e.workers {
		go w.run(&e.wg)
	}
}

// Deliver implements node.Automaton: the station-loop delivery path.
// Non-group messages are ignored — a sharded process speaks only Msg.
func (e *Engine) Deliver(from node.ID, m node.Message) {
	e.route(from, m)
}

// DeliverConcurrent demuxes a wrapped message straight into its group's
// mailbox. Safe from any goroutine; reports whether the message was
// consumed (it was a Msg — valid or not) so transports can fall back to
// the node loop for anything else. This is the transport fast path: TCP
// read loops and mem-transport delivery timers push group frames here
// without waking the station loop.
func (e *Engine) DeliverConcurrent(from node.ID, m node.Message) bool {
	return e.route(from, m)
}

func (e *Engine) route(from node.ID, m node.Message) bool {
	gm, ok := m.(Msg)
	if !ok {
		return false
	}
	if gm.Group < 0 || gm.Group >= len(e.workers) || gm.Inner == nil {
		return true // consumed: a misrouted tag is dropped, never crashes
	}
	// The physical sender id is translated to the group's logical space
	// at dispatch time, on the group loop: pushes may race boot (the
	// transport fast path can deliver before Start records the cluster
	// size), but the loop goroutines only exist after Start.
	e.workers[gm.Group].mbox.Push(gevent{from: from, msg: gm.Inner})
	return true
}

// Tick implements node.Automaton. The engine arms no station timers —
// each group loop runs its own — so every key is ignored.
func (e *Engine) Tick(string) {}

// Automaton returns group g's automaton, as Build returned it.
func (e *Engine) Automaton(g int) node.Automaton { return e.workers[g].auto }

// Halt stops every group loop and waits for them to exit. It is the
// in-process analogue of the last instant of a killed process: no more
// sends, no more timer callbacks, no more durable-store appends. Callers
// rebuilding a replica from its WAL directories (transport.Cluster
// restart paths) must Halt the dead incarnation first so its loops cannot
// race the new incarnation's recovery — kill -9 semantics are preserved
// by abandoning the stores un-Closed (no final flush), merely quiescing
// the goroutines that write to them. Idempotent; safe from any goroutine.
func (e *Engine) Halt() {
	if !e.halted.CompareAndSwap(false, true) {
		return
	}
	for _, w := range e.workers {
		w.mbox.Close()
	}
	if e.started.Load() {
		e.wg.Wait()
	}
}

// gevent is one unit of work for a group loop: a delivery (from is the
// physical sender id, translated at dispatch) or a timer expiry.
type gevent struct {
	from     node.ID
	msg      node.Message
	timerKey string
}

// gheld is one message the group automaton sent during the current turn,
// already addressed and wrapped for the shared Env.
type gheld struct {
	to node.ID
	m  Msg
}

// worker runs one group: a single goroutine consumes the mailbox and
// invokes the group automaton, so the node.Env single-threading contract
// holds per group. worker itself is the automaton's Env, translating ids
// and wrapping sends, and its loop works in turns exactly as the
// transport station's does (node.TurnEnd): the station passes an engine's
// sends straight through, so the turn is kept here.
type worker struct {
	eng  *Engine
	g    int
	auto node.Automaton
	mbox *loop.Mailbox[gevent]

	// timers and outbox are touched only from the group loop.
	timers *loop.Timers
	outbox []gheld
}

var _ node.Env = (*worker)(nil)

func (w *worker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	w.auto.Start(w)
	w.endTurn()
	loop.Run(w.mbox, w.dispatch, w.endTurn)
}

func (w *worker) dispatch(e gevent) {
	if e.timerKey == "" {
		w.auto.Deliver(Logical(e.from, w.g, w.eng.n), e.msg)
	} else if w.timers.Fired(e.timerKey) {
		w.auto.Tick(e.timerKey)
	}
}

// endTurn gives the group automaton the end-of-turn signal, then hands
// what it sent during the turn to the shared Env. A halted engine drops
// them: Halt is the last instant of a killed process.
func (w *worker) endTurn() {
	w.auto.Tick(node.TurnEnd)
	for i, h := range w.outbox {
		if !w.eng.halted.Load() {
			w.eng.env.Send(h.to, h.m)
		}
		w.outbox[i] = gheld{}
	}
	w.outbox = w.outbox[:0]
}

// --- node.Env (logical id space) ----------------------------------------

// ID implements node.Env: this process's logical id within the group.
func (w *worker) ID() node.ID { return Logical(w.eng.env.ID(), w.g, w.eng.n) }

// N implements node.Env.
func (w *worker) N() int { return w.eng.n }

// Now implements node.Env, reading the shared transport clock (the
// stations' Now is a wall-clock difference, safe from any goroutine).
func (w *worker) Now() sim.Time { return w.eng.env.Now() }

// Send implements node.Env: the logical address is rotated to its
// physical process and the message is wrapped with the group tag; at the
// end of the turn the shared Env's send path carries it over the same
// per-peer link every other group uses.
func (w *worker) Send(to node.ID, m node.Message) {
	w.outbox = append(w.outbox, gheld{Physical(to, w.g, w.eng.n), Msg{Group: w.g, Inner: m}})
}

// Broadcast implements node.Env, in ascending logical id order.
func (w *worker) Broadcast(m node.Message) {
	self := w.ID()
	for to := 0; to < w.eng.n; to++ {
		if node.ID(to) != self {
			w.Send(node.ID(to), m)
		}
	}
}

// SetTimer implements node.Env. Must be called from the group loop (the
// automaton's callbacks), which is the node.Env contract; the expiry
// callback pushes into this group's mailbox, never the station's.
func (w *worker) SetTimer(key string, d time.Duration) {
	if !w.eng.halted.Load() {
		w.timers.Set(key, d)
	}
}

// StopTimer implements node.Env.
func (w *worker) StopTimer(key string) { w.timers.Stop(key) }

// Logf implements node.Env, prefixing the group id.
func (w *worker) Logf(format string, args ...any) {
	w.eng.env.Logf("g%d: %s", w.g, fmt.Sprintf(format, args...))
}
