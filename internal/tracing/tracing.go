// Package tracing is the span ring: compact trace contexts propagated on
// the wire, one bounded ring of spans per process, and an anomaly flight
// recorder that dumps the recent span history when something goes wrong
// (a leader change, a crash, a fallback read, a slow fsync, a dropped
// message).
//
// Where internal/telemetry answers "how many / how long" in aggregate,
// tracing answers "what happened to *this* command (or *this* election),
// across every process it touched". A sampled request carries a
// Context — trace id plus parent span id — on the wire inside a Wrap
// envelope (wire kind TRACE, see internal/wire); each layer it crosses
// records spans under that context, and cmd/traceview stitches the
// per-process dumps back into one causally ordered timeline.
//
// The ring is a subscriber of the obs stream (Set.Sink): traced sends
// arrive through obs.Sink.OnSendCtx, and of the events it keeps leader changes,
// crashes, rejoins and notes as marks, firing the flight recorder on the
// first two, on a dropped message and on an fsync slower than SlowFsync.
// Set.MessageSink keeps every message event as a mark too — the
// line-by-line log omegasim -trace and chaossoak -trace-tail print with
// WriteText; it is the only event log the repository has.
//
// Tracing off is the zero value: a nil *Set (tracing.Nop) hands out nil
// *Tracers, and every method on a nil receiver is a cheap no-op — no
// allocation, no atomics, just a nil check — so the consensus hot paths
// pay nothing when tracing is disabled. Span records are pooled and the
// per-process ring is bounded, so tracing on costs O(ring) memory.
package tracing

import (
	"sync"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TraceID identifies one end-to-end trace (a request, an election). Zero
// means "not traced".
type TraceID uint64

// SpanID identifies one span within a trace. Zero means "none".
type SpanID uint64

// Context is the compact trace context carried on the wire: which trace
// an operation belongs to and which span new work should attach under.
// The zero Context means "not sampled"; every recording method treats it
// as a no-op, so the sampling decision made at ingress propagates for
// free.
type Context struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context carries a live trace.
func (c Context) Valid() bool { return c.Trace != 0 }

// KindTrace is the wire kind of the trace-context wrapper.
const KindTrace = "TRACE"

var kindTraceID = obs.Intern(KindTrace)

// Wrap carries a trace context alongside an inner protocol message. The
// wire codec encodes the context then the inner message's own code and
// fields nested in place; the consensus engine unwraps it at Deliver,
// installs the context for the inner handler, and processes Inner as if
// it had arrived bare. Wrappers do not nest: TRACE inside TRACE is a
// codec error.
type Wrap struct {
	Ctx   Context
	Inner node.Message
}

// KindID implements node.Message.
func (Wrap) KindID() obs.Kind { return kindTraceID }

// TraceContext implements node.Traced: the transports read the context
// off outbound messages to feed per-link send events into the tracer.
func (w Wrap) TraceContext() (trace, span uint64) {
	return uint64(w.Ctx.Trace), uint64(w.Ctx.Span)
}

// spanPool recycles span records so steady-state tracing allocates only
// when a span outgrows its event slice.
var spanPool = sync.Pool{New: func() any { return new(SpanJSON) }}

func newSpan() *SpanJSON {
	s := spanPool.Get().(*SpanJSON)
	*s = SpanJSON{Events: s.Events[:0], Peer: -1}
	return s
}

// maxOpenSpans bounds the open-span table: spans that are never closed
// (their instance lost leadership mid-quorum, say) must not leak. Past
// the bound new spans are dropped and counted.
const maxOpenSpans = 4096

// Tracer records spans for one process. All methods are safe on a nil
// receiver (the disabled state) and safe for concurrent use — a process
// may record from its node loop and transport receive goroutines at
// once.
type Tracer struct {
	set  *Set
	proc int

	mu      sync.Mutex
	nextID  uint64
	open    map[SpanID]*SpanJSON
	ring    []*SpanJSON // completed spans, bounded at set.cfg.Limit
	head    int         // oldest entry once the ring wrapped
	dropped uint64
}

func (t *Tracer) newID() SpanID {
	t.nextID++
	return SpanID(uint64(t.proc+1)<<48 | t.nextID)
}

// StartTrace makes the sampling decision for a new trace rooted at this
// process. One in SampleEvery calls is sampled (every call when
// SampleEvery <= 1): a sampled trace gets a fresh id and a completed
// zero-length root span named name, and the returned Context propagates
// it; a sampled-out call returns the zero Context and performs no work
// beyond one atomic increment.
func (t *Tracer) StartTrace(now sim.Time, name string) Context {
	if t == nil || !t.set.sample() {
		return Context{}
	}
	return t.push(Context{}, name, -1, now, now, "")
}

// Start opens a child span under parent and returns its context. The
// zero parent (or a nil tracer) starts nothing.
func (t *Tracer) Start(now sim.Time, parent Context, name string) Context {
	if t == nil || !parent.Valid() {
		return Context{}
	}
	t.mu.Lock()
	if len(t.open) >= maxOpenSpans {
		t.dropped++
		t.mu.Unlock()
		return Context{}
	}
	id := t.newID()
	sp := newSpan()
	sp.Trace, sp.ID, sp.Parent = uint64(parent.Trace), uint64(id), uint64(parent.Span)
	sp.Name, sp.Proc, sp.StartNS = name, t.proc, int64(now)
	t.open[id] = sp
	t.mu.Unlock()
	return Context{Trace: parent.Trace, Span: id}
}

// End closes the span ctx points at. Unknown or zero contexts are
// ignored (the span may have been dropped under pressure).
func (t *Tracer) End(now sim.Time, ctx Context) {
	if t == nil || !ctx.Valid() {
		return
	}
	t.mu.Lock()
	if sp, ok := t.open[ctx.Span]; ok {
		delete(t.open, ctx.Span)
		sp.EndNS = int64(now)
		t.pushLocked(sp)
	}
	t.mu.Unlock()
}

// Record adds a completed span [start, end] under parent in one call —
// the shape for operations observed only after the fact (a queue wait,
// a follower's synchronous accept). Peer is -1 when not applicable;
// note must be interned/constant ("" for none).
func (t *Tracer) Record(start, end sim.Time, parent Context, name string, peer int, note string) Context {
	if t == nil || !parent.Valid() {
		return Context{}
	}
	return t.push(parent, name, peer, start, end, note)
}

// push records a completed span [start, end] under parent; the zero
// parent roots a new trace at the span itself.
func (t *Tracer) push(parent Context, name string, peer int, start, end sim.Time, note string) Context {
	t.mu.Lock()
	id := t.newID()
	if !parent.Valid() {
		parent.Trace = TraceID(id)
	}
	sp := newSpan()
	sp.Trace, sp.ID, sp.Parent = uint64(parent.Trace), uint64(id), uint64(parent.Span)
	sp.Name, sp.Proc, sp.Peer = name, t.proc, peer
	sp.StartNS, sp.EndNS, sp.Note = int64(start), int64(end), note
	t.pushLocked(sp)
	t.mu.Unlock()
	return Context{Trace: parent.Trace, Span: id}
}

// Event attaches a point-in-time annotation to the open span ctx points
// at. Events on completed or unknown spans are dropped silently.
func (t *Tracer) Event(now sim.Time, ctx Context, name string, peer int) {
	if t == nil || !ctx.Valid() {
		return
	}
	t.mu.Lock()
	if sp, ok := t.open[ctx.Span]; ok {
		sp.Events = append(sp.Events, EventJSON{TNS: int64(now), Name: name, Peer: peer})
	}
	t.mu.Unlock()
}

// Mark records an unsampled, parentless, zero-length span — the shape
// for rare cluster events that must always be captured (leader changes,
// crashes) and that traceview correlates by time rather than by trace
// id. Peer is -1 when not applicable.
func (t *Tracer) Mark(now sim.Time, name string, peer int) {
	t.mark(now, name, peer, "")
}

func (t *Tracer) mark(now sim.Time, name string, peer int, note string) {
	if t != nil {
		t.push(Context{}, name, peer, now, now, note)
	}
}

// Trigger asks the flight recorder for a dump on this process's behalf.
// Reason must be a constant string; dumps are capped per reason (see
// maxDumps), and a capped or dirless trigger takes no lock: it
// costs the two atomic loads that find the reason's count.
func (t *Tracer) Trigger(now sim.Time, reason string) {
	if t == nil {
		return
	}
	t.set.Trigger(now, t.proc, reason)
}

// Dropped returns how many spans this tracer evicted from its ring or
// shed at the open-span bound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// pushLocked appends a completed span to the ring, evicting (and
// recycling) the oldest when full. Callers hold t.mu.
func (t *Tracer) pushLocked(sp *SpanJSON) {
	limit := t.set.cfg.Limit
	if len(t.ring) < limit {
		t.ring = append(t.ring, sp)
		return
	}
	old := t.ring[t.head]
	t.ring[t.head] = sp
	t.head = (t.head + 1) % limit
	t.dropped++
	spanPool.Put(old)
}

// snapshotLocked copies the retained spans oldest-first, then the open
// spans (flagged Open). Callers hold t.mu; the copies do not alias the
// pooled records.
func (t *Tracer) snapshotLocked() []SpanJSON {
	out := make([]SpanJSON, 0, len(t.ring)+len(t.open))
	for i := range t.ring {
		out = append(out, copySpan(t.ring[(t.head+i)%len(t.ring)], false))
	}
	for _, sp := range t.open {
		out = append(out, copySpan(sp, true))
	}
	return out
}

func copySpan(sp *SpanJSON, open bool) SpanJSON {
	c := *sp
	c.Open = open
	c.Events = append([]EventJSON(nil), sp.Events...) // nil when there are none
	return c
}
