package metrics

import (
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Snapshot is an immutable view of a MessageStats at one instant: each
// sender's retained send log, plus the counters the log's queries and a
// run's per-kind digest need (every counter is exact and lock-free to read
// on the MessageStats itself). All checker and experiment queries run
// against snapshots, so a live cluster can keep recording while a verdict
// is computed.
//
// Queries that reach back past a sender's window see only the retained
// sends; the counters are always exact. A snapshot shares the sender's full
// chunks and copies the list of them and the one being written, under one
// hold of the sender's lock that also reads its latest instant: 2 KiB and 8
// bytes a chunk, after a million sends as after ten. A sender's instants
// are in non-decreasing order where one goroutine sends under its id (the
// simulator); a log that is not is counted through instead of searched.
type Snapshot struct {
	logs   []sendLog // indexed by sender
	linkAt []int64   // per link, as shard.linkAt: last send instant + 1

	kindSent []uint64   // indexed by obs.Kind
	kinds    []obs.Kind // run-local first-seen order
}

// Snapshot captures the current counters and shares the retained send log.
func (s *MessageStats) Snapshot() *Snapshot {
	nk := obs.NumKinds()
	snap := &Snapshot{
		logs:     make([]sendLog, s.n),
		kindSent: make([]uint64, nk),
	}
	for from, sh := range s.shards {
		sh.mu.Lock()
		l := sh.log
		l.chunks = append([]*chunk(nil), l.chunks...)
		if last := len(l.chunks) - 1; last >= 0 {
			open := *l.chunks[last]
			l.chunks[last] = &open
		}
		sh.mu.Unlock()
		snap.logs[from] = l
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

// SendersSince returns the sorted set of processes that sent at least one
// message at or after t.
func (sn *Snapshot) SendersSince(t sim.Time) []int {
	var out []int
	for from := range sn.logs {
		if l := &sn.logs[from]; l.total > 0 && l.lastAt >= t {
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
	for i := range sn.logs {
		total += uint64(sn.logs[i].before(to) - sn.logs[i].before(from))
	}
	return total
}

// QuietSince returns the earliest instant q such that every message sent
// at or after q was sent by the given process. If nobody else ever sent,
// that instant is 0. Exact even after window eviction: each sender's
// latest send time is retained unconditionally.
func (sn *Snapshot) QuietSince(process int) sim.Time {
	var quiet sim.Time
	for from := range sn.logs {
		if l := &sn.logs[from]; from != process && l.total > 0 {
			quiet = max(quiet, l.lastAt+1)
		}
	}
	return quiet
}

// LastSendBy returns the time of the last message sent by id, and whether
// id sent anything at all.
func (sn *Snapshot) LastSendBy(id int) (sim.Time, bool) {
	return sn.logs[id].lastAt, sn.logs[id].total > 0
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
	out := make([][]uint64, len(sn.logs))
	for from := range sn.logs {
		l, counts := &sn.logs[from], make([]uint64, nb)
		l.each(l.chunks, func(at sim.Time) bool {
			if at <= horizon {
				counts[int64(at)/bucket.Nanoseconds()]++
			}
			return at <= horizon || l.unsorted
		})
		out[from] = counts
	}
	return out
}
