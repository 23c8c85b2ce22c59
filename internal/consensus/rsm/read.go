package rsm

import (
	"repro/internal/consensus"
	"repro/internal/node"
)

// This file is the read path. A linearizable read must observe every
// write that completed before it was issued. While the leader holds a
// quorum lease (lease.go) its applied prefix is guaranteed current, so
// it positions reads at its applied index and replies immediately — zero
// consensus messages per read. When the lease does not hold (disabled,
// lapsed, or leadership in doubt) the read falls back to a phase-2
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
// index; clients retry against the new leader. All reads arriving while
// one barrier is in flight coalesce onto it: the reply index is sampled
// at completion time, which lies between each such read's arrival and
// its reply, so sharing the barrier preserves linearizability.

// maxPendingReads caps the fallback queue. A leader whose barrier cannot
// complete (say, minority-partitioned with a stale Omega view) would
// otherwise grow reads.pending with every client retry until it finally
// abdicates; past the cap new fallback reads are shed and the clients
// simply retry later.
const maxPendingReads = 4096

// readState is the leader-side fallback-read bookkeeping.
type readState struct {
	pending []ReadReqMsg // reads awaiting the barrier
	barrier int          // in-flight no-op barrier instance, -1 when none
	// barrierOwn records that the barrier instance was decided by this
	// node's own ack quorum at its current ballot (set in maybeDecide) —
	// the only completion that proves the applied prefix is current. A
	// barrier decided any other way (a DecideMsg carrying a competing
	// leader's value — possibly an identical no-op from its gap fill)
	// fails the pending reads instead of answering them.
	barrierOwn bool
	onReply    func(ReadReplyMsg)
}

// Read submits Count reads numbered [Seq, Seq+Count) from this replica.
// The reply arrives through the OnReadReply hook — immediately and
// locally when this replica is the lease-holding leader, otherwise after
// a forward to the believed leader. Unknown leader or lost messages mean
// no reply: clients retry with the same sequence numbers.
//
// Like Submit, Deliver, and Tick, Read mutates node state and must run
// on the node's event loop: call it from a hook or while the simulator
// world is paused. On live transports, client goroutines must not call
// it directly — inject a ReadReqMsg through the transport instead, as
// cmd/consload does.
func (r *Node) Read(seq uint64, count int) {
	if count <= 0 {
		count = 1
	}
	r.onReadReq(r.me, ReadReqMsg{Seq: seq, Count: uint32(count), Origin: r.me})
	r.settle()
}

// OnReadReply installs the read-reply hook, invoked once per served
// ReadReqMsg that named this replica as Origin. Install before Start;
// the hook runs on the node's event loop.
func (r *Node) OnReadReply(fn func(ReadReplyMsg)) { r.reads.onReply = fn }

// onReadReq serves, forwards, or drops one read request.
func (r *Node) onReadReq(from node.ID, m ReadReqMsg) {
	if m.Count == 0 {
		m.Count = 1
	}
	leader := r.omega.Leader()
	if leader != r.me {
		// Forward toward the believed leader, Origin preserved. No
		// leader to believe in → drop; the client retries.
		if leader != node.None && from == m.Origin {
			r.env.Send(leader, m)
		}
		return
	}
	if !r.prop.prepared {
		return // preparing: the client retries after the dust settles
	}
	now := r.env.Now()
	if r.holdsLease(now) {
		r.lease.localReads.Add(uint64(m.Count))
		r.replyRead(m, true)
		return
	}
	// Fallback: ride the (shared) no-op barrier through phase 2.
	if len(r.reads.pending) >= maxPendingReads {
		return // barrier stuck, queue full: shed, the client retries
	}
	r.reads.pending = append(r.reads.pending, m)
	if r.reads.barrier < 0 {
		// A barrier opening is the read-path anomaly the flight recorder
		// watches for: the lease did not hold, so reads are paying a full
		// phase-2 round. Marked once per barrier, not per read.
		r.cfg.Tracer.Mark(now, "fallback-read", -1)
		r.cfg.Tracer.Trigger(now, "fallback-read")
		r.openBarrier()
	}
}

// openBarrier proposes the shared no-op read barrier. The instance is
// recorded before propose runs: with a one-process majority the proposal
// decides — and applies — synchronously inside propose, and maybeDecide
// must already see it as the barrier to credit the own-quorum decision.
func (r *Node) openBarrier() {
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
	if !r.reads.barrierOwn {
		r.failPendingReads()
		return
	}
	r.reads.barrier = -1
	r.reads.barrierOwn = false
	pending := r.reads.pending
	r.reads.pending = nil
	for _, m := range pending {
		r.lease.fallbackReads.Add(uint64(m.Count))
		r.replyRead(m, false)
	}
}

// failPendingReads drops reads waiting on a barrier that can no longer
// complete under this leadership. Clients retry elsewhere.
func (r *Node) failPendingReads() {
	r.reads.pending = nil
	r.reads.barrier = -1
	r.reads.barrierOwn = false
}

// replyRead answers one read batch at the current applied index. A reply
// to this very replica is delivered straight to the hook — stations
// refuse self-sends, and there is nothing to serialize anyway.
func (r *Node) replyRead(m ReadReqMsg, local bool) {
	reply := ReadReplyMsg{Seq: m.Seq, Count: m.Count, Index: r.app.count, Local: local}
	if m.Origin == r.me {
		if r.reads.onReply != nil {
			r.reads.onReply(reply)
		}
		return
	}
	r.env.Send(m.Origin, reply)
}

// onReadReply delivers a forwarded read's answer to the hook.
func (r *Node) onReadReply(m ReadReplyMsg) {
	if r.reads.onReply != nil {
		r.reads.onReply(m)
	}
}
