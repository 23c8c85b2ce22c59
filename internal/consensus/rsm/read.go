package rsm

import (
	"encoding/binary"
	"math"

	"repro/internal/consensus"
	"repro/internal/node"
)

// This file is the read path. A linearizable read must observe every
// write that completed before it was issued. While the leader holds a
// quorum lease (lease.go) its applied prefix is guaranteed current, so
// it positions reads at its applied index — zero consensus messages per
// read. When the lease does not hold (disabled, lapsed, leadership in
// doubt, or phase 1 still running) the read falls back to a phase-2
// no-op barrier: the leader proposes consensus.Noop through the normal
// pipeline and answers once its applier passes the barrier instance —
// but only if the barrier was decided by this node's own quorum at its
// current ballot (readState.barrierOwn). That condition is the safety
// proof: a majority of ACCEPTEDs at ballot b means no higher ballot had
// completed phase 1 with a quorum before those acks (the two majorities
// would intersect in an acceptor that NACKs one of them), so no write
// this leader's applied prefix misses was completed before the reads
// arrived. A deposed leader's barrier instead gets decided out from
// under it — a follower that already learned a newer leader's value at
// that instance answers the ACCEPT with a DecideMsg, not an ACCEPTED —
// and the pending reads are failed, never answered at the stale applied
// index; clients retry against the new leader.
//
// Reads are the third user of the turn (turn.go). A request that reaches
// the leader is only noted; the end of the turn serves everything the
// turn noted at once (serveReads): one clock read, one lease check, one
// sample of the applied index — taken after the turn's quorums have
// applied — and one READ-REPLY per origin carrying every request that
// origin made. Sharing an answer is what reads on one barrier have always
// done, and it is linearizable for the same reason: the index is sampled,
// and the lease checked, at an instant between each read's arrival and
// its reply. Whatever deposes this leader later in the same turn
// (abdicateLeader) drops the noted reads with the pending ones, so
// nothing is answered after this node helped a competitor. On a runtime
// without turns each request is a turn of its own and is answered at
// once, alone.

// maxPendingReads caps the fallback queue. A leader whose barrier cannot
// complete (say, minority-partitioned with a stale Omega view) would
// otherwise grow reads.pending with every client retry until it finally
// abdicates; past the cap new fallback reads are shed and the clients
// simply retry later. It also bounds a reply: 4,096 packed requests of ≤ 15
// bytes each are ≤ 60 KiB, one 64 KiB TCP sender batch, far under wire.MaxFrame.
const maxPendingReads = 4096

// readState is the leader-side read bookkeeping.
type readState struct {
	noted   []ReadReqMsg // this turn's requests, served at its end; the list is reused
	pending []ReadReqMsg // reads awaiting the barrier
	barrier int          // in-flight no-op barrier instance, -1 when none
	// barrierOwn records that the barrier instance was decided by this
	// node's own ack quorum at its current ballot (set in maybeDecide) —
	// the only completion that proves the applied prefix is current. A
	// barrier decided any other way (a DecideMsg carrying a competing
	// leader's value — possibly an identical no-op from its gap fill)
	// fails the pending reads instead of answering them.
	barrierOwn bool
	packed     []byte // answerReads' scratch: the reply being packed
	onReply    func(ReadReplyMsg)
}

// Read submits Count reads numbered [Seq, Seq+Count) from this replica.
// The reply arrives through the OnReadReply hook — locally, at the end of
// the turn, when this replica is the lease-holding leader, otherwise
// after a forward to the believed leader. Unknown leader or lost messages
// mean no reply: clients retry with the same sequence numbers.
//
// Like Submit, Deliver, and Tick, Read mutates node state and must run
// on the node's event loop: call it from a hook or while the simulator
// world is paused. On live transports, client goroutines must not call
// it directly — inject a ReadReqMsg through the transport instead, as
// the repository benchmark does (bench/live.go).
func (r *Node) Read(seq uint64, count int) {
	r.onReadReq(r.me, ReadReqMsg{Seq: seq, Count: uint32(max(count, 1)), Origin: r.me})
	r.settle()
}

// OnReadReply installs the read-reply hook, invoked once per served
// ReadReqMsg that named this replica as Origin. Install before Start;
// the hook runs on the node's event loop.
func (r *Node) OnReadReply(fn func(ReadReplyMsg)) { r.reads.onReply = fn }

// onReadReq notes, forwards, or holds one read request.
func (r *Node) onReadReq(from node.ID, m ReadReqMsg) {
	if m.Origin < 0 || int(m.Origin) >= r.n {
		return // off the wire unchecked, and the reply is sent to it
	}
	if m.Count == 0 {
		m.Count = 1
	}
	leader := r.omega.Leader()
	if leader != r.me {
		// This replica's own read goes to the believed leader (none to
		// believe in → drop; the client retries). One that was sent here is
		// held for the edge that names this replica, as a REQ is (hold).
		if from != r.me {
			r.hold(heldReq{read: m})
		} else if leader != node.None {
			r.env.Send(leader, r.readReqs.New(m))
		}
		return
	}
	r.reads.noted = append(r.reads.noted, m)
}

// serveReads answers what the turn noted, from the lease if it holds at
// this instant and through the barrier otherwise. A leader-elect still in
// phase 1 queues for the barrier too — its client has the request stamped
// as sent and would sit out a timeout — and maybeFinishPrepare opens it
// the moment the ballot stands.
func (r *Node) serveReads() {
	reqs := r.reads.noted
	r.reads.noted = nil // a hook that reads again starts a list of its own
	if r.holdsLease(r.env.Now()) {
		r.lease.localReads.Add(r.answerReads(reqs, true))
	} else {
		// Past the cap the barrier is stuck: shed, the clients retry.
		room := maxPendingReads - len(r.reads.pending)
		r.reads.pending = append(r.reads.pending, reqs[:min(len(reqs), room)]...)
		if r.prop.prepared {
			r.openBarrier()
		}
	}
	if len(r.reads.noted) == 0 {
		r.reads.noted = reqs[:0]
	}
}

// openBarrier proposes the shared no-op read barrier, if reads wait for
// one and none is in flight: all reads arriving while one is coalesce
// onto it. The instance is recorded before propose runs: with a
// one-process majority the proposal decides — and applies — synchronously
// inside propose, and maybeDecide must already see it as the barrier to
// credit the own-quorum decision.
func (r *Node) openBarrier() {
	if r.reads.barrier >= 0 || len(r.reads.pending) == 0 {
		return
	}
	// A barrier opening is the read-path anomaly the flight recorder
	// watches for: the lease did not hold, so reads are paying a full
	// phase-2 round. Marked once per barrier, not per read.
	now := r.env.Now()
	r.cfg.Tracer.Mark(now, "fallback-read", -1)
	r.cfg.Tracer.Trigger(now, "fallback-read")
	r.reads.barrierOwn = false
	r.reads.barrier = r.pipe.nextInst
	r.propose(consensus.Noop, nil)
}

// completeFallbackReads answers pending reads once the applier has
// passed the barrier instance — or fails them when the barrier decided
// without this node's quorum, because the applied prefix may then be
// missing a newer leader's writes. Called at the end of every apply pass.
func (r *Node) completeFallbackReads() {
	if r.reads.barrier < 0 || r.app.next <= r.reads.barrier {
		return
	}
	pending, own := r.reads.pending, r.reads.barrierOwn
	r.failPendingReads() // passed: answered if this node's quorum decided it
	if own {
		r.lease.fallbackReads.Add(r.answerReads(pending, false))
	}
}

// failPendingReads drops reads waiting on a barrier that can no longer
// complete under this leadership. Clients retry elsewhere.
func (r *Node) failPendingReads() {
	r.reads.pending = nil
	r.reads.barrier = -1
	r.reads.barrierOwn = false
}

// answerReads answers every request in reqs at the applied index of this
// instant and returns how many reads that was. Each origin gets one
// reply: its first request in the reply's own fields, the others packed
// behind it. Requests of this very replica go straight to the hook —
// stations refuse self-sends, and there is nothing to serialize anyway.
func (r *Node) answerReads(reqs []ReadReqMsg, local bool) (reads uint64) {
	index := r.app.count
	for o := 0; o < r.n; o++ {
		origin, packed, first := node.ID(o), r.reads.packed[:0], true
		reply := ReadReplyMsg{Index: index, Local: local}
		var prev uint64 // the number of this origin's request before q
		for _, q := range reqs {
			if q.Origin != origin {
				continue
			}
			reads += uint64(q.Count)
			switch {
			case origin == r.me:
				reply.Seq, reply.Count = q.Seq, q.Count
				r.onReadReply(reply)
			case first:
				reply.Seq, reply.Count, first = q.Seq, q.Count, false
			default:
				packed = appendSpan(packed, prev, q)
			}
			prev = q.Seq
		}
		r.reads.packed = packed
		if !first {
			reply.More = string(packed)
			r.env.Send(origin, r.replies.New(reply))
		}
	}
	return reads
}

// appendSpan packs one further request of a reply whose previous request
// was numbered prev: the distance between the two numbers (modulo 2^64,
// so a client may number downwards or wrap) and the count, as uvarints —
// three bytes for a client that numbers its reads one by one.
func appendSpan(buf []byte, prev uint64, q ReadReqMsg) []byte {
	buf = binary.AppendUvarint(buf, q.Seq-prev)
	return binary.AppendUvarint(buf, uint64(q.Count))
}

// cutSpan splits the first packed request off s.
func cutSpan(s string, prev uint64) (seq uint64, count uint32, rest string, ok bool) {
	d, n := uvarint(s)
	if n <= 0 {
		return 0, 0, "", false
	}
	c, k := uvarint(s[n:])
	if k <= 0 || c > math.MaxUint32 {
		return 0, 0, "", false
	}
	return prev + d, uint32(c), s[n+k:], true
}

// eachRead calls fn, in order, with every request the reply answers. A
// reply whose More does not unpack to the last byte answers nothing and
// reports false: it is validated before anything is yielded, because an
// answer cannot be taken back.
func (m ReadReplyMsg) eachRead(fn func(seq uint64, count uint32)) bool {
	for rest, seq, ok := m.More, m.Seq, true; rest != ""; {
		if seq, _, rest, ok = cutSpan(rest, seq); !ok {
			return false
		}
	}
	fn(m.Seq, m.Count)
	for rest, seq := m.More, m.Seq; rest != ""; {
		var count uint32
		seq, count, rest, _ = cutSpan(rest, seq)
		fn(seq, count)
	}
	return true
}

// onReadReply hands a reply's answers to the hook, one call per request.
func (r *Node) onReadReply(m ReadReplyMsg) {
	if r.reads.onReply == nil {
		return
	}
	m.eachRead(func(seq uint64, count uint32) {
		r.reads.onReply(ReadReplyMsg{Seq: seq, Count: count, Index: m.Index, Local: m.Local})
	})
}
