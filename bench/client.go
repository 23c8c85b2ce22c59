package main

import (
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
)

// This file is the client model shared by the live workloads: commands
// carry a client id and a sequence number, every operation has one op
// record, completion is observed at the ingress replica, and an
// operation that misses the client timeout is retried under the same id
// and counted as failed.

// op is one client operation. The generator owns every field but done
// and gotIdx, which belong to the completion hook; the two sides meet
// only through the atomic done, and the rest is read after the cluster
// has stopped.
type op struct {
	intended int64        // ns since the client epoch: when it was due
	sent     int64        // first attempt handed to the transport
	done     atomic.Int64 // first completion seen at the ingress, 0 = none
	read     bool
	retried  bool
	// needIdx (reads) is the ingress's apply position of the newest write
	// acknowledged before the read was issued; gotIdx, the reply's Index,
	// must cover it.
	needIdx int64
	gotIdx  int64
}

// opLog hands out op records by sequence number. Chunks are published
// through atomic pointers so the completion hook can look a record up
// while the generator is still appending.
type opLog struct {
	chunks [4096]atomic.Pointer[[opChunk]op]
	n      atomic.Int64
}

const opChunk = 1 << 14

func (l *opLog) add() (int64, *op) {
	seq := l.n.Load()
	c := l.chunks[seq/opChunk].Load()
	if c == nil {
		c = new([opChunk]op)
		l.chunks[seq/opChunk].Store(c)
	}
	l.n.Store(seq + 1)
	return seq, &c[seq%opChunk]
}

func (l *opLog) at(seq int64) *op {
	if seq < 0 || seq >= l.n.Load() {
		return nil
	}
	return &l.chunks[seq/opChunk].Load()[seq%opChunk]
}

func (l *opLog) len() int64 { return l.n.Load() }

// Command values are cmdBytes long: 'c', four digits of client id, 's',
// fifteen digits of sequence number, '|', then seeded filler.
const (
	seqAt  = 6
	seqEnd = 21
)

// payload fills command values. Every byte is a pure function of the
// seed and the sequence number, so a retry resends the identical command
// and a seed fixes everything the cluster is asked to agree on.
type payload struct {
	seed uint64
	id   int64
}

func newPayload(seed int64) *payload {
	return &payload{seed: uint64(seed), id: int64(uint64(seed) % 10000)}
}

// mix is splitmix64 over seed and n: the benchmark's only randomness.
func mix(seed, n uint64) uint64 {
	x := seed + (n+1)*0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

func (p *payload) command(seq int64) consensus.Value {
	var b [cmdBytes]byte
	b[0] = 'c'
	putDigits(b[1:5], p.id)
	b[5] = 's'
	putDigits(b[seqAt:seqEnd], seq)
	b[seqEnd] = '|'
	x := mix(p.seed, uint64(seq))
	for i := seqEnd + 1; i < cmdBytes; i += 8 {
		x = mix(x, uint64(i))
		for j, r := i, x; j < i+8 && j < cmdBytes; j++ {
			b[j] = 'a' + byte(r%26)
			r /= 26
		}
	}
	return consensus.Value(b[:])
}

func putDigits(dst []byte, v int64) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = '0' + byte(v%10)
		v /= 10
	}
}

// commandSeq recovers the sequence number from a command value; probes,
// no-ops and anything else a client did not send report false.
func commandSeq(v consensus.Value) (int64, bool) {
	if len(v) != cmdBytes || v[0] != 'c' || v[5] != 's' || v[seqEnd] != '|' {
		return 0, false
	}
	var seq int64
	for i := seqAt; i < seqEnd; i++ {
		d := v[i] - '0'
		if d > 9 {
			return 0, false
		}
		seq = seq*10 + int64(d)
	}
	return seq, true
}

const probePrefix = "probe-"

// ingress is what the client sees of the replica it talks to: the
// completion hooks run on that replica's event loop and publish through
// atomics; everything else reads them.
type ingress struct {
	epoch time.Time
	ops   *opLog

	applied    atomic.Int64 // commands applied here, fillers included
	instances  atomic.Int64 // log instances those commands arrived in
	lastInst   int
	writesDone atomic.Int64 // first completions of client writes
	readsDone  atomic.Int64
	ackedPos   atomic.Int64 // apply position of the newest acknowledged write
	probe      chan struct{}
	// wake gets a token whenever a completion leaves the closed loop at
	// most half full: its generator sleeps on that instead of polling the
	// sandbox's coarse (1 ms) timer.
	wake chan struct{}
	// nowNS reads the clock completions are stamped with: wall time since
	// epoch for live clusters, the kernel clock in simulations.
	nowNS func() int64
}

func newIngress(ops *opLog) *ingress {
	in := &ingress{epoch: time.Now(), ops: ops, lastInst: -1, probe: make(chan struct{}, 1), wake: make(chan struct{}, 1)}
	in.nowNS = func() int64 { return int64(time.Since(in.epoch)) }
	return in
}

// onApply is the rsm.Node.OnApply hook of the ingress replica.
func (in *ingress) onApply(inst, _ int, v consensus.Value) {
	pos := in.applied.Add(1)
	if inst != in.lastInst {
		in.lastInst = inst
		in.instances.Add(1)
	}
	seq, ok := commandSeq(v)
	if !ok {
		if len(v) >= len(probePrefix) && v[:len(probePrefix)] == probePrefix {
			select {
			case in.probe <- struct{}{}:
			default:
			}
		}
		return
	}
	o := in.ops.at(seq)
	if o == nil {
		return // not ours: the correctness gate reports it from the logs
	}
	if !o.done.CompareAndSwap(0, in.nowNS()) {
		return // applied again (a retry or a re-proposal): at-least-once, counted once
	}
	in.ackedPos.Store(pos)
	in.writesDone.Add(1)
	if in.ops.len()-in.completed() <= satInflight/2 {
		select {
		case in.wake <- struct{}{}:
		default:
		}
	}
}

// onReadReply is the rsm.Node.OnReadReply hook of the ingress replica.
func (in *ingress) onReadReply(m rsm.ReadReplyMsg) {
	o := in.ops.at(int64(m.Seq))
	if o == nil || !o.done.CompareAndSwap(0, in.nowNS()) {
		return
	}
	o.gotIdx = int64(m.Index)
	in.readsDone.Add(1)
}

func (in *ingress) completed() int64 { return in.writesDone.Load() + in.readsDone.Load() }
