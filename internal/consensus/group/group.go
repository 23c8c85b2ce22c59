// Package group describes G independent replicated-log state machines in
// one process — the sharded write path. Every command belongs to exactly
// one group (shard), each group runs its own Omega election, its own stable
// ballot, its own pipeline and its own (optional) WAL directory.
// internal/transport runs a sharded process as G lanes of its node loop,
// one goroutine each, so decided-write throughput can scale with cores
// instead of saturating one single-threaded loop; this package holds what
// the lanes share: the Msg wrapper and the id rotation.
//
// Crucially, the groups multiplex over the *same* physical links. A lane
// wraps every outbound protocol message in a Msg carrying a varint GroupID
// routing tag, so a 4-group cluster still dials one TCP connection per
// directed peer pair and the per-link senders writev-coalesce frames from
// all groups into shared batches — more frames per flush, not more
// sockets. The paper's steady-state link count (n−1 after stabilization,
// per group all on the same n−1 physical connections) is preserved.
//
// Leader spread: inside group g, process identities are rotated —
// logical id ℓ lives on physical process (ℓ+g) mod n — so the Omega
// detectors (which break ties toward the lowest id) elect a *different*
// physical leader per group: group g stabilizes on physical process
// g mod n. Writes therefore spread across processes as well as cores.
package group

import (
	"fmt"

	"repro/internal/node"
	"repro/internal/obs"
)

// Config parameterizes New.
type Config struct {
	// Groups is the shard count G (required, >= 1).
	Groups int
	// Build constructs group g's automaton — typically an Omega detector
	// composed with an rsm.Node (and, for durable configurations, a
	// per-group durable.Store opened on the group's own WAL directory).
	// It runs once per group inside New, in group order, on the caller's
	// goroutine; the automaton it returns lives in the group's logical id
	// space.
	Build func(g int) node.Automaton
}

// Engine is a sharded process: its G group automatons, group g at index g.
// It stands in a transport cluster's automaton slice, or is passed to its
// Restart, where the cluster runs each group on a lane of its own; it is a
// node.Automaton only to stand there, and no runtime calls it as one.
type Engine struct{ groups []node.Automaton }

// New builds a sharded process; Build runs immediately for every group so
// the caller can capture references to the per-group automatons it
// creates.
func New(cfg Config) *Engine {
	if cfg.Groups < 1 {
		panic(fmt.Sprintf("group: Groups = %d, need at least 1", cfg.Groups))
	}
	e := &Engine{groups: make([]node.Automaton, cfg.Groups)}
	for g := range e.groups {
		e.groups[g] = cfg.Build(g)
	}
	return e
}

// Automatons returns the group automatons, group g at index g.
func (e *Engine) Automatons() []node.Automaton { return e.groups }

// Start implements node.Automaton by refusing to run: only
// internal/transport knows how to run the groups.
func (e *Engine) Start(node.Env) { panic("group: a sharded process runs on internal/transport") }

// Deliver implements node.Automaton; it is never called.
func (e *Engine) Deliver(node.ID, node.Message) {}

// Tick implements node.Automaton; it is never called.
func (e *Engine) Tick(string) {}

// KindGroup tags the group-routing wrapper message.
const KindGroup = "GROUP"

var kindGroupID = obs.Intern(KindGroup)

// Msg wraps one inner protocol message with its group routing tag — the
// only message kind a sharded process sends or understands. On the wire
// it is the group-aware envelope kind: a varint GroupID followed by the
// inner message's own encoding (see internal/wire).
type Msg struct {
	// Group is the shard this message belongs to, 0..Groups-1.
	Group int
	// Inner is the wrapped protocol message, addressed in the group's
	// logical id space on send and translated back on delivery.
	Inner node.Message
}

// KindID implements node.Message.
func (Msg) KindID() obs.Kind { return kindGroupID }

// TraceContext implements node.Traced by delegating to the inner
// message: a trace wrapper rides *inside* the group envelope (the demux
// must see its own tag first), so the transports reach through one
// level to find the context. Untraced inner messages report zero.
func (m Msg) TraceContext() (trace, span uint64) {
	if t, ok := m.Inner.(node.Traced); ok {
		return t.TraceContext()
	}
	return 0, 0
}

// Wrap tags m with group g.
func Wrap(g int, m node.Message) Msg { return Msg{Group: g, Inner: m} }

// Physical maps a group-g logical process id to the physical process that
// hosts it: (logical + g) mod n. Group 0 is the identity; higher groups
// rotate, so each group's lowest logical id — the Omega tie-break winner —
// lands on a different physical process.
func Physical(logical node.ID, g, n int) node.ID {
	return node.ID((int(logical) + g) % n)
}

// Logical is Physical's inverse: the group-g logical id of a physical
// process.
func Logical(phys node.ID, g, n int) node.ID {
	return node.ID(((int(phys)-g)%n + n) % n)
}
