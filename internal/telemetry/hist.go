// Package telemetry is the live operational surface of the repository: a
// subscriber of the obs pipeline (DESIGN.md §8) that turns the stream —
// heartbeat deliveries among the message events, and every protocol event:
// leader changes, crashes and rejoins, decisions, flushes, WAL activity —
// plus the counters of the cluster's metrics.MessageStats into
// distributions and gauges that can be scraped off a running cluster.
//
// The package answers the two questions the reproduced paper makes
// headline claims about, but that per-run snapshots cannot answer on a
// live system:
//
//   - How long do elections take? (downtime distribution: leader-change
//     to next cluster-wide stable leader)
//   - Is the cluster actually quiescent? (after stabilization, exactly
//     n−1 directed links carry traffic and non-leaders stop sending)
//
// Histogram is the recording primitive: fixed arrays of atomics, sharded
// per process, zero allocations on the record path, immutable snapshots.
// Collector is the subscriber: one switch over the events, one table of
// series. Attach (with FlushHook and WALHooks) is the assembly call that
// turns a process's hooks into events for every subscriber, not only this
// one. Serve exposes everything over HTTP as Prometheus text plus pprof.
package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of power-of-two duration buckets. Bucket b
// counts durations d with bits.Len64(uint64(d)) == b, i.e. the half-open
// range [2^(b-1), 2^b) nanoseconds; bucket 0 counts zero (and negative,
// clamped) durations. 64 buckets cover every representable duration, so
// recording never range-checks.
const HistBuckets = 65

// histShard is one recorder's slice of a histogram. Shards are separately
// heap-allocated so concurrent recorders never share cache lines.
type histShard struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds, monotone via CAS
}

// Histogram is a lock-free duration histogram with power-of-two buckets.
// The record path is wait-free apart from the bounded max-CAS loop and
// performs no allocation; recording and snapshotting may proceed
// concurrently (a snapshot taken mid-record is approximate by at most the
// in-flight records).
type Histogram struct {
	shards []*histShard
}

// NewHistogram returns a histogram with one shard per expected concurrent
// recorder (typically the process count). shards < 1 is treated as 1.
func NewHistogram(shards int) *Histogram {
	if shards < 1 {
		shards = 1
	}
	h := &Histogram{shards: make([]*histShard, shards)}
	for i := range h.shards {
		h.shards[i] = &histShard{}
	}
	return h
}

// bucketOf maps a duration to its power-of-two bucket.
func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d))
}

// Record adds one observation to the given shard. Callers pick a shard
// that is theirs alone in the common case (their process id, modulo the
// shard count); sharing a shard is safe, merely contended.
func (h *Histogram) Record(shard int, d time.Duration) {
	sh := h.shards[shard%len(h.shards)]
	if d < 0 {
		d = 0
	}
	ns := uint64(d)
	sh.buckets[bucketOf(d)].Add(1)
	sh.count.Add(1)
	sh.sum.Add(ns)
	for {
		cur := sh.max.Load()
		if ns <= cur || sh.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// HistSnapshot is an immutable merged view of a histogram at one instant.
type HistSnapshot struct {
	Count   uint64
	Sum     time.Duration
	Max     time.Duration
	Buckets [HistBuckets]uint64
}

// Snapshot merges all shards into an immutable snapshot.
func (h *Histogram) Snapshot() HistSnapshot {
	var snap HistSnapshot
	for _, sh := range h.shards {
		for b := range sh.buckets {
			snap.Buckets[b] += sh.buckets[b].Load()
		}
		snap.Count += sh.count.Load()
		snap.Sum += time.Duration(sh.sum.Load())
		if m := time.Duration(sh.max.Load()); m > snap.Max {
			snap.Max = m
		}
	}
	return snap
}

// bucketUpper returns the inclusive upper bound of bucket b in
// nanoseconds.
func bucketUpper(b int) time.Duration {
	if b == 0 {
		return 0
	}
	if b >= 64 {
		return time.Duration(int64(^uint64(0) >> 1)) // saturate
	}
	return time.Duration((uint64(1) << uint(b)) - 1)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) of the
// recorded distribution: the upper edge of the bucket containing it.
// Power-of-two buckets make this exact to within a factor of two, which
// is the resolution the telemetry layer promises. Returns 0 when empty.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for b, c := range s.Buckets {
		seen += c
		if seen >= rank {
			u := bucketUpper(b)
			if u > s.Max {
				u = s.Max // the top bucket can't exceed the recorded max
			}
			return u
		}
	}
	return s.Max
}
