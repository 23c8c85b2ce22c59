package metrics

import (
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Snapshot is an immutable view of a MessageStats at one instant: the
// retained send-log window, copied out per sender, plus the counters the
// log's queries and a run's per-kind digest need (every counter is exact
// and lock-free to read on the MessageStats itself). All
// checker and experiment queries run against snapshots, so a live cluster
// can keep recording while a verdict is computed.
//
// Records within one sender's slice are in non-decreasing time order (each
// process's clock is monotonic and each process has a single sending
// goroutine in every runtime). Queries that reach back past the retained
// window see only the retained records; the counters are always exact.
type Snapshot struct {
	n       int
	perFrom [][]SendRecord // indexed by sender, oldest first
	lastAt  []sim.Time     // max send time per sender, survives eviction
	linkAt  []int64        // per link, as shard.linkAt: last send instant + 1

	sentBy   []uint64
	kindSent []uint64   // indexed by obs.Kind
	kinds    []obs.Kind // run-local first-seen order
}

// Snapshot captures the current counters and retained send log.
func (s *MessageStats) Snapshot() *Snapshot {
	nk := obs.NumKinds()
	snap := &Snapshot{
		n:        s.n,
		perFrom:  make([][]SendRecord, s.n),
		lastAt:   make([]sim.Time, s.n),
		sentBy:   make([]uint64, s.n),
		kindSent: make([]uint64, nk),
	}
	for from, sh := range s.shards {
		snap.perFrom[from] = sh.records()
		sh.mu.Lock()
		snap.lastAt[from] = sh.lastAt
		sh.mu.Unlock()
		snap.sentBy[from] = sh.sentBy.Load()
		for to := range sh.linkAt {
			snap.linkAt = append(snap.linkAt, sh.linkAt[to].Load())
		}
		for k := 0; k < nk; k++ {
			snap.kindSent[k] += sh.kindSent[k].Load()
		}
	}
	s.obsMu.Lock()
	snap.kinds = append([]obs.Kind(nil), s.observed...)
	s.obsMu.Unlock()
	return snap
}

// KindCount returns how many messages of the given kind were sent.
func (sn *Snapshot) KindCount(kind string) uint64 {
	id, ok := obs.Lookup(kind)
	if !ok || int(id) >= len(sn.kindSent) {
		return 0
	}
	return sn.kindSent[id]
}

// Kinds returns the observed sent-message kinds in first-seen order.
func (sn *Snapshot) Kinds() []string {
	out := make([]string, len(sn.kinds))
	for i, id := range sn.kinds {
		out[i] = obs.KindName(id)
	}
	return out
}

// search returns the index of the first record in recs at or after t.
func search(recs []SendRecord, t sim.Time) int {
	return sort.Search(len(recs), func(i int) bool { return recs[i].At >= t })
}

// SendersSince returns the sorted set of processes that sent at least one
// message at or after t.
func (sn *Snapshot) SendersSince(t sim.Time) []int {
	var out []int
	for from := range sn.perFrom {
		if sn.sentBy[from] > 0 && sn.lastAt[from] >= t {
			out = append(out, from)
		}
	}
	return out
}

// LinksUsedSince returns how many distinct directed links carried at least
// one message at or after t. Exact even after window eviction.
func (sn *Snapshot) LinksUsedSince(t sim.Time) (used int) {
	for _, at := range sn.linkAt {
		if at > int64(t) {
			used++
		}
	}
	return used
}

// MessagesInWindow counts retained records sent in the half-open window
// [from, to).
func (sn *Snapshot) MessagesInWindow(from, to sim.Time) uint64 {
	var total uint64
	for _, recs := range sn.perFrom {
		total += uint64(search(recs, to) - search(recs, from))
	}
	return total
}

// QuietSince returns the earliest instant q such that every message sent
// at or after q was sent by the given process. If nobody else ever sent,
// that instant is 0. Exact even after window eviction: each sender's
// latest send time is retained unconditionally.
func (sn *Snapshot) QuietSince(process int) sim.Time {
	var quiet sim.Time
	for from := range sn.perFrom {
		if from == process || sn.sentBy[from] == 0 {
			continue
		}
		if t := sn.lastAt[from] + 1; t > quiet {
			quiet = t
		}
	}
	return quiet
}

// LastSendBy returns the time of the last message sent by id, and whether
// id sent anything at all.
func (sn *Snapshot) LastSendBy(id int) (sim.Time, bool) {
	if sn.sentBy[id] == 0 {
		return 0, false
	}
	return sn.lastAt[id], true
}

// Series buckets the retained send log into fixed windows of width bucket,
// from time zero to horizon, and returns the per-bucket message counts.
func (sn *Snapshot) Series(bucket time.Duration, horizon sim.Time) []uint64 {
	per := sn.SeriesBySender(bucket, horizon)
	out := per[0]
	for _, counts := range per[1:] {
		for b, c := range counts {
			out[b] += c
		}
	}
	return out
}

// SeriesBySender buckets the retained send log per sender.
func (sn *Snapshot) SeriesBySender(bucket time.Duration, horizon sim.Time) [][]uint64 {
	if bucket <= 0 {
		panic("metrics: SeriesBySender with non-positive bucket")
	}
	nb := int(int64(horizon)/bucket.Nanoseconds()) + 1
	out := make([][]uint64, sn.n)
	for from, recs := range sn.perFrom {
		out[from] = make([]uint64, nb)
		for _, rec := range recs {
			if rec.At > horizon {
				break
			}
			out[from][int64(rec.At)/bucket.Nanoseconds()]++
		}
	}
	return out
}
