// Package relay implements the paper's assumption-relaxation device:
// message relaying. Wrapping a protocol automaton in a relay makes every
// message flood the system — the first time a process receives a message
// it re-broadcasts it before delivering — so the protocol only needs an
// eventually timely *path* from the source to each process instead of a
// direct eventually timely link.
//
// Messages are made unique with an (origin, sequence) pair; receivers
// deduplicate with a per-origin watermark plus a sparse set, so memory
// stays proportional to reordering, not to history. Point-to-point
// messages carry their destination and are delivered only there, but they
// are still flooded, which is what lets an accusation reach a leader whose
// direct link from the accuser is useless.
//
// The trade, stated by the paper and measured by experiment E10: a relayed
// algorithm is communication-efficient only with respect to processes that
// *originate* new messages forever — the flooding itself keeps all n(n−1)
// links busy. Wrapper.Originated exposes the per-process origination count
// so the checker can verify that eventually only the leader creates new
// messages.
package relay

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
)

// KindRelay tags relayed envelopes. The inner kind is appended for
// accounting, e.g. "RELAY/LEADER".
const KindRelay = "RELAY"

// BroadcastDest marks an envelope addressed to everyone.
const BroadcastDest node.ID = node.None

// Msg is the relayed envelope.
type Msg struct {
	Origin node.ID
	Seq    uint64
	Dest   node.ID // BroadcastDest or a specific process
	Inner  node.Message
}

// relayKindIDs caches the interned "RELAY/<inner>" id per inner kind id
// (+1, so zero means unset), so flooding a heartbeat neither concatenates
// nor hashes strings after the first envelope of each inner kind.
var relayKindIDs [obs.MaxKinds]atomic.Uint32

// KindID implements node.Message.
func (m Msg) KindID() obs.Kind {
	inner := m.Inner.KindID()
	if v := relayKindIDs[inner].Load(); v != 0 {
		return obs.Kind(v - 1)
	}
	k := obs.Intern(KindRelay + "/" + obs.KindName(inner))
	relayKindIDs[inner].Store(uint32(k) + 1)
	return k
}

// Wrapper runs an inner automaton behind a flooding relay. It implements
// node.Automaton; the inner automaton sees a node.Env whose sends are
// wrapped and flooded.
type Wrapper struct {
	inner node.Automaton
	env   node.Env
	me    node.ID
	seq   uint64
	seen  map[node.ID]*dedup

	originated uint64
	relayed    uint64
}

var _ node.Automaton = (*Wrapper)(nil)

// Wrap returns a relay around inner.
func Wrap(inner node.Automaton) *Wrapper {
	return &Wrapper{inner: inner, seen: make(map[node.ID]*dedup)}
}

// Originated returns how many new (non-relay) messages this process has
// created. With a communication-efficient inner algorithm, eventually only
// the leader's count grows.
func (w *Wrapper) Originated() uint64 { return w.originated }

// Relayed returns how many envelopes this process has forwarded.
func (w *Wrapper) Relayed() uint64 { return w.relayed }

// Inner returns the wrapped automaton (for reading protocol state).
func (w *Wrapper) Inner() node.Automaton { return w.inner }

// Start implements node.Automaton.
func (w *Wrapper) Start(env node.Env) {
	w.env = env
	w.me = env.ID()
	w.inner.Start(&relayEnv{w: w})
}

// Deliver implements node.Automaton.
func (w *Wrapper) Deliver(from node.ID, m node.Message) {
	rm, ok := m.(Msg)
	if !ok {
		// Not a relayed envelope (e.g. a co-located protocol that is
		// not wrapped): pass through untouched.
		w.inner.Deliver(from, m)
		return
	}
	if rm.Origin == w.me {
		return // our own flood came back around
	}
	if !w.firstSighting(rm.Origin, rm.Seq) {
		return
	}
	// Re-broadcast before delivering, skipping the process we got it
	// from and the origin (they have it by definition).
	w.relayed++
	for to := 0; to < w.env.N(); to++ {
		id := node.ID(to)
		if id == w.me || id == from || id == rm.Origin {
			continue
		}
		w.env.Send(id, rm)
	}
	if rm.Dest == BroadcastDest || rm.Dest == w.me {
		w.inner.Deliver(rm.Origin, rm.Inner)
	}
}

// Tick implements node.Automaton.
func (w *Wrapper) Tick(key string) { w.inner.Tick(key) }

// firstSighting records (origin, seq) and reports whether it was new.
func (w *Wrapper) firstSighting(origin node.ID, seq uint64) bool {
	d, ok := w.seen[origin]
	if !ok {
		d = newDedup()
		w.seen[origin] = d
	}
	return d.add(seq)
}

// relayEnv is the Env the inner automaton sees: sends become flooded
// envelopes.
type relayEnv struct {
	w *Wrapper
}

var _ node.Env = (*relayEnv)(nil)

func (e *relayEnv) ID() node.ID   { return e.w.env.ID() }
func (e *relayEnv) N() int        { return e.w.env.N() }
func (e *relayEnv) Now() sim.Time { return e.w.env.Now() }

func (e *relayEnv) Send(to node.ID, m node.Message) {
	e.w.flood(to, m)
}

func (e *relayEnv) Broadcast(m node.Message) {
	e.w.flood(BroadcastDest, m)
}

func (e *relayEnv) SetTimer(key string, d time.Duration) { e.w.env.SetTimer(key, d) }
func (e *relayEnv) StopTimer(key string)                 { e.w.env.StopTimer(key) }
func (e *relayEnv) Logf(format string, args ...any)      { e.w.env.Logf(format, args...) }

// flood creates a fresh envelope and sends it to every other process.
func (w *Wrapper) flood(dest node.ID, m node.Message) {
	if dest != BroadcastDest && (int(dest) < 0 || int(dest) >= w.env.N()) {
		panic(fmt.Sprintf("relay: destination %d out of range", dest))
	}
	rm := Msg{Origin: w.me, Seq: w.seq, Dest: dest, Inner: m}
	w.seq++
	w.originated++
	for to := 0; to < w.env.N(); to++ {
		if node.ID(to) != w.me {
			w.env.Send(node.ID(to), rm)
		}
	}
}

// dedup tracks a set of sequence numbers as a contiguous watermark plus a
// sparse overflow, so long runs use O(reordering) memory.
type dedup struct {
	// watermark w means every seq < w has been seen.
	watermark uint64
	sparse    map[uint64]bool
}

func newDedup() *dedup {
	return &dedup{sparse: make(map[uint64]bool)}
}

// add records seq, returning true if it was new.
func (d *dedup) add(seq uint64) bool {
	if seq < d.watermark || d.sparse[seq] {
		return false
	}
	d.sparse[seq] = true
	for d.sparse[d.watermark] {
		delete(d.sparse, d.watermark)
		d.watermark++
	}
	return true
}

// contains reports whether seq has been seen.
func (d *dedup) contains(seq uint64) bool {
	return seq < d.watermark || d.sparse[seq]
}
