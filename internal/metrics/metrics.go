// Package metrics collects message-level accounting for simulation runs
// and live clusters.
//
// The reproduced paper's headline property is about message counts: a
// communication-efficient Omega implementation eventually has exactly one
// sender and uses exactly n-1 links forever. This package counts every
// send, delivery and drop, per link and per kind, and keeps each link's
// last send instant, so that the property checkers (internal/check) and
// the experiment harness (internal/experiments) can ask "who sent after
// time t", "how many links carried traffic after t" and "when did everyone
// but the leader fall quiet". How many messages a window [from, to) holds
// is TotalSent read at its two edges, by whoever runs the window.
//
// MessageStats is a subscriber of the obs pipeline (DESIGN.md §8): it
// counts sends, deliveries, drops and the wire bytes of the transports
// that serialize, and embeds obs.Nop for trace contexts and protocol
// events, which are not messages. Every runtime tees one in
// (node.World.Stats, the clusters' Stats()). Recording and every query are
// atomics only: the counters are per-process sharded, and nothing grows
// with the number of sends.
package metrics

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sim"
)

// shard holds one process's slice of the accounting: counters it bumps as
// a sender (sends, out-links, drops) or as a receiver (deliveries). Shards
// are separately heap-allocated, and they and their slices (one
// allocation) end in a line of padding: processes never share cache lines.
type shard struct {
	sentBy    atomic.Uint64
	delivered atomic.Uint64 // messages received by this process
	dropped   atomic.Uint64 // messages lost on this process's out-links
	bytesOut  atomic.Uint64 // wire bytes handed to this process's out-links

	link   []atomic.Uint64 // out-link counts, indexed by destination
	linkAt []atomic.Uint64 // per out-link: its last send instant + 1, 0 never
	kind   []atomic.Uint64 // sends per kind interned when the stats were built
	_      [64]byte
}

// MessageStats accumulates per-run message accounting. It is safe for
// concurrent use — the same type serves the single-threaded simulator and
// the live goroutine transports — and takes no lock.
type MessageStats struct {
	obs.Nop // trace contexts and events: neither is a message count

	n      int
	shards []*shard

	// firstSeen[k] is kind k's first-seen place among sent kinds, from 1
	// (seen numbers them). late, for kinds interned after the build, has a
	// row of counts per sender and a row of places; made on first use.
	firstSeen []atomic.Uint64
	seen      atomic.Uint64
	late      atomic.Pointer[[]atomic.Uint64]
}

// NewMessageStats returns stats for a system of n processes.
func NewMessageStats(n int) *MessageStats {
	kinds := obs.NumKinds()
	s := &MessageStats{n: n, shards: make([]*shard, n), firstSeen: make([]atomic.Uint64, kinds)}
	for i := range s.shards {
		cells := make([]atomic.Uint64, 2*n+kinds+8)
		s.shards[i] = &shard{link: cells[:n:n], linkAt: cells[n : 2*n : 2*n], kind: cells[2*n : 2*n+kinds]}
	}
	return s
}

// N returns the number of processes the stats were created for.
func (s *MessageStats) N() int { return s.n }

// kind returns from's count of kind k and k's first-seen place.
func (s *MessageStats) kind(from int, k obs.Kind) (sent, place *atomic.Uint64) {
	if int(k) < len(s.firstSeen) {
		return &s.shards[from].kind[k], &s.firstSeen[k]
	}
	if s.late.Load() == nil {
		all := make([]atomic.Uint64, (s.n+1)*obs.MaxKinds)
		s.late.CompareAndSwap(nil, &all)
	}
	late := *s.late.Load()
	return &late[from*obs.MaxKinds+int(k)], &late[s.n*obs.MaxKinds+int(k)]
}

// OnSend implements obs.Sink: from sent a message of the given kind to to
// at t.
func (s *MessageStats) OnSend(t sim.Time, from, to int, kind obs.Kind) {
	sh := s.shards[from]
	sh.sentBy.Add(1)
	sh.link[to].Add(1)
	at := &sh.linkAt[to] // a max: goroutines sending under one id race here
	for old := at.Load(); old <= uint64(t) && !at.CompareAndSwap(old, uint64(t)+1); old = at.Load() {
	}
	sent, place := s.kind(from, kind)
	sent.Add(1)
	if place.Load() == 0 { // steady-state sends pay one atomic load
		place.CompareAndSwap(0, s.seen.Add(1))
	}
}

// OnDeliver implements obs.Sink: a message of the given kind reached to.
func (s *MessageStats) OnDeliver(t sim.Time, from, to int, kind obs.Kind) {
	s.shards[to].delivered.Add(1)
}

// OnDrop implements obs.Sink: the from→to link lost a message.
func (s *MessageStats) OnDrop(t sim.Time, from, to int, kind obs.Kind) {
	s.shards[from].dropped.Add(1)
}

// OnWireBytes implements obs.Sink: the from→to link was handed n
// encoded bytes for one message of the given kind. Only the serializing
// transports report it; simulator runs carry no wire bytes.
func (s *MessageStats) OnWireBytes(t sim.Time, from, to int, kind obs.Kind, n int) {
	s.shards[from].bytesOut.Add(uint64(n))
}

// TotalSent returns the total number of messages sent.
func (s *MessageStats) TotalSent() uint64 {
	return s.sum(func(i int) *atomic.Uint64 { return &s.shards[i].sentBy })
}

// Delivered returns the total number of messages delivered.
func (s *MessageStats) Delivered() uint64 {
	return s.sum(func(i int) *atomic.Uint64 { return &s.shards[i].delivered })
}

// Dropped returns the total number of messages lost in transit.
func (s *MessageStats) Dropped() uint64 {
	return s.sum(func(i int) *atomic.Uint64 { return &s.shards[i].dropped })
}

// SentBy returns how many messages process id has sent.
func (s *MessageStats) SentBy(id int) uint64 { return s.shards[id].sentBy.Load() }

// SentByKind returns how many messages of the given kind process id has
// sent. Zero for kinds never interned.
func (s *MessageStats) SentByKind(id int, kind string) uint64 {
	if k, ok := obs.Lookup(kind); ok {
		sent, _ := s.kind(id, k)
		return sent.Load()
	}
	return 0
}

// WireBytes returns the total encoded bytes handed to the links. Zero on
// runs whose transport never serializes (the simulator).
func (s *MessageStats) WireBytes() uint64 {
	return s.sum(func(i int) *atomic.Uint64 { return &s.shards[i].bytesOut })
}

// LinkCount returns how many messages were sent on the from→to link.
func (s *MessageStats) LinkCount(from, to int) uint64 { return s.shards[from].link[to].Load() }

// sum adds one counter of each process up.
func (s *MessageStats) sum(counter func(id int) *atomic.Uint64) uint64 {
	var total uint64
	for i := range s.shards {
		total += counter(i).Load()
	}
	return total
}

// KindCount returns how many messages of the given kind were sent; zero for
// a kind never interned.
func (s *MessageStats) KindCount(kind string) (total uint64) {
	for id := range s.shards {
		total += s.SentByKind(id, kind)
	}
	return total
}

// Kinds returns the observed sent-message kinds in first-seen order.
func (s *MessageStats) Kinds() []string {
	out := make([]string, s.seen.Load())
	for k := range obs.Kind(obs.NumKinds()) {
		if _, p := s.kind(0, k); p.Load() > 0 && p.Load() <= uint64(len(out)) {
			out[p.Load()-1] = obs.KindName(k)
		}
	}
	return slices.DeleteFunc(out, func(name string) bool { return name == "" }) // lost to a race
}

// Summary returns a one-line human-readable digest.
func (s *MessageStats) Summary() string {
	return fmt.Sprintf("sent=%d delivered=%d dropped=%d kinds=%d",
		s.TotalSent(), s.Delivered(), s.Dropped(), len(s.Kinds()))
}

// lastAt is from's last send instant + 1 (0 if none): its links' latest.
func (s *MessageStats) lastAt(from int) (last int64) {
	for to := range s.shards[from].linkAt {
		last = max(last, int64(s.shards[from].linkAt[to].Load()))
	}
	return last
}

// SendersSince returns the sorted set of processes that sent at least one
// message at or after t.
func (s *MessageStats) SendersSince(t sim.Time) []int {
	var out []int
	for from := range s.shards {
		if last := s.lastAt(from); last > 0 && last > int64(t) {
			out = append(out, from)
		}
	}
	return out
}

// LinksUsedSince returns how many directed links carried a message at or
// after t: a walk over n² atomics for the gauges that poll it.
func (s *MessageStats) LinksUsedSince(t sim.Time) (used int) {
	for _, sh := range s.shards {
		for to := range sh.linkAt {
			if int64(sh.linkAt[to].Load()) > int64(t) {
				used++
			}
		}
	}
	return used
}

// QuietSince returns the earliest instant q such that every message sent
// at or after q was sent by the given process. If nobody else ever sent,
// that instant is 0.
func (s *MessageStats) QuietSince(process int) sim.Time {
	var quiet int64
	for from := range s.shards {
		if from != process {
			quiet = max(quiet, s.lastAt(from))
		}
	}
	return sim.Time(quiet)
}

// LastSendBy returns the time of the last message sent by id, and whether
// id sent anything at all (the time is 0 if not).
func (s *MessageStats) LastSendBy(id int) (sim.Time, bool) {
	last := s.lastAt(id)
	return sim.Time(max(last-1, 0)), last > 0
}
