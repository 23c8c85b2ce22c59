// Package obs is the one path by which what happens in a run reaches
// whoever watches it, shared by the deterministic simulator and the live
// transports. Message events (send, deliver, drop) go through the Sink
// interface, with message kinds pre-interned to small integer IDs so the
// hot path never hashes strings or takes a global lock; the rare
// protocol-level events (leader changes, crashes and rejoins, decisions,
// flushes, WAL activity, notes) are Event values delivered through the
// EventSink extension of the same sink (event.go).
//
// The simulator's network.Fabric and node.World and the live clusters in
// internal/transport report into the Sink they were built with;
// metrics.MessageStats, telemetry.Collector and the tracing span ring are
// plain subscribers, and Tee composes several into one. obs subscribes to
// nothing itself: it holds the vocabulary and Agreement, the election
// tracker two of those subscribers share.
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

// Sink observes message-level events. Implementations must be safe for
// concurrent use: the live transports report from one goroutine per
// process plus delivery callbacks.
type Sink interface {
	// OnSend reports that from handed a message of the given kind to the
	// from→to link at t.
	OnSend(t sim.Time, from, to int, kind Kind)
	// OnDeliver reports that a message arrived at to.
	OnDeliver(t sim.Time, from, to int, kind Kind)
	// OnDrop reports that the from→to link lost a message.
	OnDrop(t sim.Time, from, to int, kind Kind)
}

// ByteSink is an optional extension of Sink for observers that account
// bytes on the wire. Transports that serialize messages report each
// frame's encoded size (as handed to the link, length prefixes included)
// alongside the OnSend event. Implementations must be safe for concurrent
// use, like Sink.
type ByteSink interface {
	// OnWireBytes reports that the from→to link was handed n encoded
	// bytes for one message of the given kind at t.
	OnWireBytes(t sim.Time, from, to int, kind Kind, n int)
}

// Bytes returns s's byte-accounting extension, or nil when s does not
// implement it. Callers hold the result so the hot path pays one nil
// check per message instead of a type assertion.
func Bytes(s Sink) ByteSink {
	if bs, ok := s.(ByteSink); ok {
		return bs
	}
	return nil
}

// CtxSink is an optional extension of Sink for observers that consume
// causal trace contexts (internal/tracing). Transports report each send
// of a context-carrying message (node.Traced with a nonzero trace id)
// through OnSendCtx alongside the ordinary OnSend event. Implementations
// must be safe for concurrent use, like Sink.
type CtxSink interface {
	// OnSendCtx reports that from handed a traced message of the given
	// kind to the from→to link at t, under the (trace, span) context.
	OnSendCtx(t sim.Time, from, to int, kind Kind, trace, span uint64)
}

// Ctx returns s's trace-context extension, or nil when s does not
// implement it — same holding pattern as Bytes: one nil check per
// message on the hot path, and a nil result makes the per-send type
// assertion on the message itself unnecessary too.
func Ctx(s Sink) CtxSink {
	if cs, ok := s.(CtxSink); ok {
		return cs
	}
	return nil
}

// Nop is a Sink that discards everything.
type Nop struct{}

// OnSend implements Sink.
func (Nop) OnSend(sim.Time, int, int, Kind) {}

// OnDeliver implements Sink.
func (Nop) OnDeliver(sim.Time, int, int, Kind) {}

// OnDrop implements Sink.
func (Nop) OnDrop(sim.Time, int, int, Kind) {}

// multi fans events out to several sinks in order.
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

// OnWireBytes implements ByteSink, forwarding to every member that
// accounts bytes. A multi always presents the extension; members that
// lack it are skipped.
func (m multi) OnWireBytes(t sim.Time, from, to int, kind Kind, n int) {
	for _, s := range m {
		if bs, ok := s.(ByteSink); ok {
			bs.OnWireBytes(t, from, to, kind, n)
		}
	}
}

// OnSendCtx implements CtxSink, forwarding to every member that consumes
// trace contexts. Like OnWireBytes, a multi always presents the
// extension and skips members that lack it.
func (m multi) OnSendCtx(t sim.Time, from, to int, kind Kind, trace, span uint64) {
	for _, s := range m {
		if cs, ok := s.(CtxSink); ok {
			cs.OnSendCtx(t, from, to, kind, trace, span)
		}
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
