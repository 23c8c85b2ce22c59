// Package node defines the process-runtime abstraction shared by the
// deterministic simulator and the live transport: a protocol is an
// Automaton reacting to message deliveries and timer expirations through an
// Env handle, never touching threads or wall-clock time directly. Both
// runtimes run it on one node loop (Proc), on virtual time (World) or on
// real goroutines (internal/transport), so the same implementations
// (internal/core, internal/detector/..., internal/consensus/...) run
// unchanged on either.
package node

import (
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// ID identifies a process; processes are numbered 0..n-1.
type ID int

// None is the null process id.
const None ID = -1

// Message is a protocol message. KindID returns its kind, a short stable
// tag (for example "LEADER") interned once by the protocol that defines it,
// so accounting, tracing and wire encoding never hash a kind string;
// obs.KindName gives the tag back. Messages must behave as immutable values
// once sent: implementations carrying slices must copy them at
// construction. A message may be a pointer — a box from a Slab — that every
// receiver of a broadcast shares, so no receiver writes through one.
type Message interface {
	KindID() obs.Kind
}

// Traced is optionally implemented by wrapper messages carrying a causal
// trace context (internal/tracing's Wrap). Transports read the context off
// outbound messages to report per-link send events to the tracing layer.
// A zero trace id means "no context"; implementations must not allocate.
type Traced interface {
	TraceContext() (trace, span uint64)
}

// Env is the runtime handle an Automaton uses to interact with the world.
// All methods must be called only from within the automaton's callbacks
// (Start, Deliver, Tick); the runtimes guarantee those never run
// concurrently for a given process.
type Env interface {
	// ID returns this process's identity.
	ID() ID
	// N returns the total number of processes in the system.
	N() int
	// Now returns the current local clock reading.
	Now() sim.Time
	// Send transmits m to process to over the network.
	Send(to ID, m Message)
	// Broadcast sends m to every other process, in ascending id order.
	Broadcast(m Message)
	// SetTimer (re)arms the named timer to fire after d. Arming an
	// already-armed key replaces the previous deadline.
	SetTimer(key string, d time.Duration)
	// StopTimer disarms the named timer if armed.
	StopTimer(key string)
	// Logf records a protocol annotation in the trace.
	Logf(format string, args ...any)
}

// TurnEnd is a reserved timer key: the end-of-turn signal. Every runtime
// handles events in turns (Proc) — a live node loop what has queued up
// since it last looked (bounded), World one event — and then calls
// Tick(TurnEnd) once; only when it returns do the turn's sends, the
// signal's own included, go on the network. An automaton that can do once
// per turn what it would otherwise do per event (form one batch, write its
// log once) defers that work to the signal; others ignore the key. It
// travels as a Tick, so Compose and every forwarding wrapper carry it
// unknowing. The first follows Start. A call from outside any turn (a
// Submit from a kernel callback, a hand-driven test Env) is followed by no
// signal: it ends itself, and its sends leave at once. No runtime arms it
// as a timer.
const TurnEnd = "node/turn-end"

// Automaton is a protocol state machine. Implementations must be fully
// event-driven: all state changes happen inside these callbacks.
type Automaton interface {
	// Start runs once when the process boots, before any delivery.
	Start(env Env)
	// Deliver handles a message from another process.
	Deliver(from ID, m Message)
	// Tick handles the expiration of the named timer.
	Tick(key string)
}
