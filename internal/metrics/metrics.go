// Package metrics collects message-level accounting for simulation runs
// and live clusters.
//
// The reproduced paper's headline property is about message counts: a
// communication-efficient Omega implementation eventually has exactly one
// sender and uses exactly n-1 links forever. This package counts every
// send, delivery and drop and logs each send with its virtual timestamp,
// so that the property checkers (internal/check) and the experiment harness
// (internal/experiments) can compute "who sent after time t", "how many
// messages per period", and "how many links carried traffic after t".
//
// MessageStats is a subscriber of the obs pipeline (DESIGN.md §8): it
// counts sends, deliveries, drops and the wire bytes of the transports
// that serialize, and embeds obs.Nop for trace contexts and protocol
// events, which are not messages. Every runtime tees one in
// (node.World.Stats, the clusters' Stats()). The record path takes no
// global lock: all counters are per-process sharded atomics, and the send
// log is per sender, guarded by that sender's own mutex — contended only
// where goroutines send under one id (a live ingress and its clients).
// Queries over the send log go through an immutable Snapshot.
//
// The log keeps when each of a sender's last window sends left and nothing
// else about it — to whom and of what kind are counted per link and per
// kind, exactly and for ever: 2 KiB chunks of varint differences between
// consecutive instants (sendlog.go), about three bytes a send.
package metrics

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sim"
)

// DefaultWindow is the default per-sender send-log bound, in sends. It is
// generous — far beyond what any experiment in the suite produces per
// sender — so that by default the log behaves as unbounded while still
// giving long live runs a hard memory ceiling, about 3 MB a sender. See
// DESIGN.md ("Instrumentation pipeline") for sizing guidance.
const DefaultWindow = 1 << 20

// shard holds one process's slice of the accounting: counters it bumps as
// a sender (sends, out-links, drops) or as a receiver (deliveries), plus
// the bounded log of its own send instants. Shards are separately
// heap-allocated so different processes never share cache lines.
type shard struct {
	sentBy    atomic.Uint64
	delivered atomic.Uint64 // messages received by this process
	dropped   atomic.Uint64 // messages lost on this process's out-links
	bytesOut  atomic.Uint64 // wire bytes handed to this process's out-links

	link     []atomic.Uint64 // out-link counts, indexed by destination
	linkAt   []atomic.Int64  // per out-link: its last send instant + 1, 0 never; survives eviction
	kindSent [obs.MaxKinds]atomic.Uint64

	mu  sync.Mutex
	log sendLog
}

// MessageStats accumulates per-run message accounting. It is safe for
// concurrent use — the same type serves the single-threaded simulator and
// the live goroutine transports — and its record path takes no global
// lock.
type MessageStats struct {
	obs.Nop // trace contexts and events: neither is a message count

	n      int
	shards []*shard

	// observed is the run-local first-seen order of sent kinds; seen gates
	// the slow path so steady-state sends pay one atomic load.
	obsMu    sync.Mutex
	seen     [obs.MaxKinds]atomic.Bool
	observed []obs.Kind
}

// NewMessageStats returns stats for a system of n processes with the
// default send-log window.
func NewMessageStats(n int) *MessageStats {
	return NewMessageStatsWindow(n, DefaultWindow)
}

// NewMessageStatsWindow returns stats whose send log retains at most
// window records per sender; older records are evicted, counters are
// never lost. window <= 0 means DefaultWindow.
func NewMessageStatsWindow(n, window int) *MessageStats {
	if window <= 0 {
		window = DefaultWindow
	}
	s := &MessageStats{n: n, shards: make([]*shard, n)}
	for i := range s.shards {
		s.shards[i] = &shard{link: make([]atomic.Uint64, n), linkAt: make([]atomic.Int64, n), log: sendLog{window: window}}
	}
	return s
}

// N returns the number of processes the stats were created for.
func (s *MessageStats) N() int { return s.n }

func (s *MessageStats) noteKind(kind obs.Kind) {
	if s.seen[kind].Load() {
		return
	}
	s.obsMu.Lock()
	if !s.seen[kind].Load() {
		s.observed = append(s.observed, kind)
		s.seen[kind].Store(true)
	}
	s.obsMu.Unlock()
}

// OnSend implements obs.Sink: from sent a message of the given kind to to
// at t.
func (s *MessageStats) OnSend(t sim.Time, from, to int, kind obs.Kind) {
	sh := s.shards[from]
	sh.sentBy.Add(1)
	sh.link[to].Add(1)
	at := &sh.linkAt[to] // a max: goroutines sending under one id race here
	for old := at.Load(); old <= int64(t) && !at.CompareAndSwap(old, int64(t)+1); old = at.Load() {
	}
	sh.kindSent[kind].Add(1)
	s.noteKind(kind)
	sh.mu.Lock()
	sh.log.add(t)
	sh.mu.Unlock()
}

// OnDeliver implements obs.Sink: a message of the given kind reached to.
func (s *MessageStats) OnDeliver(t sim.Time, from, to int, kind obs.Kind) {
	sh := s.shards[to]
	sh.delivered.Add(1)
}

// OnDrop implements obs.Sink: the from→to link lost a message.
func (s *MessageStats) OnDrop(t sim.Time, from, to int, kind obs.Kind) {
	sh := s.shards[from]
	sh.dropped.Add(1)
}

// OnWireBytes implements obs.Sink: the from→to link was handed n
// encoded bytes for one message of the given kind. Only the serializing
// transports report it; simulator runs carry no wire bytes.
func (s *MessageStats) OnWireBytes(t sim.Time, from, to int, kind obs.Kind, n int) {
	sh := s.shards[from]
	sh.bytesOut.Add(uint64(n))
}

// --- counter queries (exact, never windowed) -----------------------------

// TotalSent returns the total number of messages sent.
func (s *MessageStats) TotalSent() uint64 {
	return s.sum(func(sh *shard) *atomic.Uint64 { return &sh.sentBy })
}

// Delivered returns the total number of messages delivered.
func (s *MessageStats) Delivered() uint64 {
	return s.sum(func(sh *shard) *atomic.Uint64 { return &sh.delivered })
}

// Dropped returns the total number of messages lost in transit.
func (s *MessageStats) Dropped() uint64 {
	return s.sum(func(sh *shard) *atomic.Uint64 { return &sh.dropped })
}

// SentBy returns how many messages process id has sent.
func (s *MessageStats) SentBy(id int) uint64 { return s.shards[id].sentBy.Load() }

// SentByKind returns how many messages of the given kind process id has
// sent. Zero for kinds never interned.
func (s *MessageStats) SentByKind(id int, kind string) uint64 {
	k, ok := obs.Lookup(kind)
	if !ok {
		return 0
	}
	return s.shards[id].kindSent[k].Load()
}

// WireBytes returns the total encoded bytes handed to the links. Zero on
// runs whose transport never serializes (the simulator).
func (s *MessageStats) WireBytes() uint64 {
	return s.sum(func(sh *shard) *atomic.Uint64 { return &sh.bytesOut })
}

// LinkCount returns how many messages were sent on the from→to link.
func (s *MessageStats) LinkCount(from, to int) uint64 { return s.shards[from].link[to].Load() }

// sum adds one counter up over the shards.
func (s *MessageStats) sum(counter func(*shard) *atomic.Uint64) uint64 {
	var total uint64
	for _, sh := range s.shards {
		total += counter(sh).Load()
	}
	return total
}

// KindCount returns how many messages of the given kind were sent; zero for
// a kind never interned.
func (s *MessageStats) KindCount(kind string) uint64 {
	id, ok := obs.Lookup(kind)
	if !ok {
		return 0
	}
	return s.sum(func(sh *shard) *atomic.Uint64 { return &sh.kindSent[id] })
}

// Kinds returns the observed sent-message kinds in first-seen order.
func (s *MessageStats) Kinds() []string {
	s.obsMu.Lock()
	ids := make([]obs.Kind, len(s.observed))
	copy(ids, s.observed)
	s.obsMu.Unlock()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = obs.KindName(id)
	}
	return out
}

// Summary returns a one-line human-readable digest.
func (s *MessageStats) Summary() string {
	return fmt.Sprintf("sent=%d delivered=%d dropped=%d kinds=%d",
		s.TotalSent(), s.Delivered(), s.Dropped(), len(s.Kinds()))
}

// --- send-log queries (windowed) -----------------------------------------

// LinksUsedSince returns how many distinct directed links carried at least
// one message at or after t, from the per-link last-send instants: exact
// after eviction, lock-free and O(n²), for the gauges that poll it — a
// scrape copies no send log. The other send-log queries — who sent since t,
// messages per window, when everyone but the leader fell quiet — are asked
// of a Snapshot, so that one verdict's questions see one instant.
func (s *MessageStats) LinksUsedSince(t sim.Time) (used int) {
	for _, sh := range s.shards {
		for to := range sh.linkAt {
			if sh.linkAt[to].Load() > int64(t) {
				used++
			}
		}
	}
	return used
}
