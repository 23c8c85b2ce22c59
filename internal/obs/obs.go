// Package obs is the one path by which what happens in a run reaches
// whoever watches it, shared by the deterministic simulator and the live
// transports. Everything goes through one interface, Sink: message events
// (send, deliver, drop, and the wire bytes and trace context of a
// serialized send), with message kinds pre-interned to small integer IDs
// so the hot path never hashes strings or takes a global lock, and the
// rare protocol-level events (leader changes, crashes and rejoins,
// decisions, flushes, WAL activity, notes) as Event values (event.go).
//
// The simulator's network.Fabric and node.World and the live clusters in
// internal/transport each hold one Sink and report into it;
// metrics.MessageStats, telemetry.Collector and the tracing span ring are
// plain subscribers that embed Nop for what they ignore, and Tee composes
// several into one. obs subscribes to nothing itself: it holds the
// vocabulary and Agreement, the election tracker two of those subscribers
// share.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Kind identifies an interned message kind. IDs are process-global and
// assigned in first-Intern order; they are dense, so observers can index
// arrays by Kind.
type Kind uint16

// MaxKinds bounds the kind space. Message kinds are registered by
// protocols at assembly time (the whole repository defines a few dozen),
// so the bound exists only to let observers use fixed-size arrays.
const MaxKinds = 256

// kindTable is an immutable snapshot of the interner; lookups load it with
// a single atomic read, so the read path is contention-free.
type kindTable struct {
	byName map[string]Kind
	names  []string
}

var (
	internMu sync.Mutex
	kinds    atomic.Pointer[kindTable]
)

func init() {
	kinds.Store(&kindTable{byName: map[string]Kind{}})
}

// Intern returns the ID for a kind name, assigning one on first use.
// Lookups of known names are lock-free.
func Intern(name string) Kind {
	if k, ok := kinds.Load().byName[name]; ok {
		return k
	}
	internMu.Lock()
	defer internMu.Unlock()
	t := kinds.Load()
	if k, ok := t.byName[name]; ok {
		return k
	}
	if len(t.names) >= MaxKinds {
		panic(fmt.Sprintf("obs: more than %d message kinds (interning %q)", MaxKinds, name))
	}
	next := &kindTable{
		byName: make(map[string]Kind, len(t.byName)+1),
		names:  append(append(make([]string, 0, len(t.names)+1), t.names...), name),
	}
	for n, k := range t.byName {
		next.byName[n] = k
	}
	k := Kind(len(t.names))
	next.byName[name] = k
	kinds.Store(next)
	return k
}

// Lookup returns the ID for a kind name without interning it.
func Lookup(name string) (Kind, bool) {
	k, ok := kinds.Load().byName[name]
	return k, ok
}

// KindName returns the name interned for k.
func KindName(k Kind) string {
	t := kinds.Load()
	if int(k) < len(t.names) {
		return t.names[k]
	}
	return fmt.Sprintf("KIND(%d)", uint16(k))
}

// NumKinds returns how many kinds have been interned so far.
func NumKinds() int { return len(kinds.Load().names) }

// Sink observes a run, and is the one observer interface: each runtime
// holds one and reports every message and every protocol-level event
// (event.go) into it; an observer that wants only some embeds Nop for the
// rest. Implementations must be safe for concurrent use: the live
// transports report from one goroutine per process plus delivery
// callbacks.
type Sink interface {
	// OnSend reports that from handed a message of the given kind to the
	// from→to link at t.
	OnSend(t sim.Time, from, to int, kind Kind)
	// OnDeliver reports that a message arrived at to.
	OnDeliver(t sim.Time, from, to int, kind Kind)
	// OnDrop reports that the from→to link lost a message.
	OnDrop(t sim.Time, from, to int, kind Kind)
	// OnWireBytes reports, after its OnSend, the n encoded bytes (length
	// prefixes included) of a message a serializing transport sent.
	OnWireBytes(t sim.Time, from, to int, kind Kind, n int)
	// OnSendCtx reports, after its OnSend, the (trace, span) context of
	// a node.Traced message with a nonzero trace id (internal/tracing).
	OnSendCtx(t sim.Time, from, to int, kind Kind, trace, span uint64)
	// OnEvent reports a protocol-level event. Events are not messages and
	// never touch message counters.
	OnEvent(e Event)
}

// Nop is a Sink that discards everything; a partial observer embeds it
// for the methods it ignores.
type Nop struct{}

func (Nop) OnSend(sim.Time, int, int, Kind)                    {}
func (Nop) OnDeliver(sim.Time, int, int, Kind)                 {}
func (Nop) OnDrop(sim.Time, int, int, Kind)                    {}
func (Nop) OnWireBytes(sim.Time, int, int, Kind, int)          {}
func (Nop) OnSendCtx(sim.Time, int, int, Kind, uint64, uint64) {}
func (Nop) OnEvent(Event)                                      {}

// multi fans everything out to several sinks in order.
type multi []Sink

func (m multi) OnSend(t sim.Time, from, to int, kind Kind) {
	for _, s := range m {
		s.OnSend(t, from, to, kind)
	}
}

func (m multi) OnDeliver(t sim.Time, from, to int, kind Kind) {
	for _, s := range m {
		s.OnDeliver(t, from, to, kind)
	}
}

func (m multi) OnDrop(t sim.Time, from, to int, kind Kind) {
	for _, s := range m {
		s.OnDrop(t, from, to, kind)
	}
}

func (m multi) OnWireBytes(t sim.Time, from, to int, kind Kind, n int) {
	for _, s := range m {
		s.OnWireBytes(t, from, to, kind, n)
	}
}

func (m multi) OnSendCtx(t sim.Time, from, to int, kind Kind, trace, span uint64) {
	for _, s := range m {
		s.OnSendCtx(t, from, to, kind, trace, span)
	}
}

func (m multi) OnEvent(e Event) {
	for _, s := range m {
		s.OnEvent(e)
	}
}

// Tee composes sinks into one, skipping nils. Zero live sinks yield a Nop,
// one is returned unwrapped, several fan out in argument order.
func Tee(sinks ...Sink) Sink {
	live := make(multi, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return Nop{}
	case 1:
		return live[0]
	}
	return live
}
