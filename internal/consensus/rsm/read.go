package rsm

import (
	"encoding/binary"
	"math"
	"sort"

	"repro/internal/consensus"
	"repro/internal/node"
)

// This file is the read path. A linearizable read must observe every
// write that completed before it was issued. The leader notes each read
// with its need: the first instance it had not launched when the read's
// turn began (what a turn launches leaves at its end). A write completed
// before the read is below need, or in an older ballot's instance that
// phase 1 re-proposed (proposer.go, reopenedEnd); a read is answered only
// at an applied index that covers its need.
//
// While the leader holds a quorum lease (lease.go) and has decided what
// phase 1 re-proposed, no other ballot can decide anything: its applied
// prefix is current once it covers need — zero consensus messages per read.
// At n = 3 a follower decides what it votes for before the leader hears of
// it (pipeline.go, pairDecides), so a read waits for the applier to pass
// need, and is answered then if the lease still holds. At n ≥ 4 only the
// leader decides first: its applied index covers need already.
//
// Otherwise (no lease, lapsed, leadership in doubt, or phase 1 running)
// the leader proposes a consensus.Noop barrier through the pipeline and,
// once its applier passes it, answers the reads whose need is at or below
// it — if its own quorum decided it at its current ballot (barrierOwn).
// That is the safety proof: the acks were sent after the ACCEPT left, so
// after those reads arrived, and a majority of ACCEPTEDs at ballot b means
// no higher ballot had completed phase 1 with a quorum before them (the two
// majorities would intersect in an acceptor that NACKs one of them). A
// later read waits for the next barrier: acks already sent prove nothing
// about it. A deposed leader's barrier instead gets decided out from under
// it — a follower that learned a newer leader's value there answers the
// ACCEPT with a DecideMsg — and its reads are failed, never answered at the
// stale applied index; clients retry against the new leader.
//
// Reads are the third user of the turn (turn.go). A request that reaches
// the leader is only noted; the end of the turn serves every read it can
// at once (serveReads): one clock read, one lease check, one sample of the
// applied index — taken after the turn's quorums have applied — and one
// READ-REPLY per origin carrying every request that origin made. Sharing an
// answer is linearizable for the reason sharing a barrier is: the index is
// sampled, and the lease checked, between each read's arrival and its
// reply. Whatever deposes this leader later in the same turn
// (abdicateLeader) drops the waiting reads, so nothing is answered after
// this node helped a competitor. Without turns each event is a turn.

// maxPendingReads caps the reads waiting at the leader. One whose barrier
// cannot complete (say, minority-partitioned with a stale Omega view) would
// otherwise grow the list with every client retry until it finally
// abdicates; past the cap new reads are shed and the clients simply retry
// later. It also bounds a reply: 4,096 packed requests of ≤ 15 bytes each
// are ≤ 60 KiB, one 64 KiB TCP sender batch, far under wire.MaxFrame.
const maxPendingReads = 4096

// readState is the leader-side read bookkeeping.
type readState struct {
	waiting []waitingRead // noted, unanswered, in arrival order; the list is reused
	need    int           // pipe.nextInst when the turn began (endTurn)
	barrier int           // in-flight no-op barrier instance, -1 when none
	// barrierOwn records that the barrier instance was decided by this
	// node's own ack quorum at its current ballot (set in maybeDecide) —
	// the only completion that proves the applied prefix is current. A
	// barrier decided any other way (a DecideMsg carrying a competing
	// leader's value — possibly an identical no-op from its gap fill)
	// fails its reads instead of answering them.
	barrierOwn bool
	packed     []byte // answerReads' scratch: the reply being packed
	onReply    func(ReadReplyMsg)
}

// waitingRead is a read with its need, which never falls along the list.
type waitingRead struct {
	ReadReqMsg
	need int
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
	if len(r.reads.waiting) < maxPendingReads { // past the cap shed: the client retries
		r.reads.waiting = append(r.reads.waiting, waitingRead{m, r.reads.need})
	}
}

// serveReads answers the waiting reads an applied index covers, a prefix
// of the list. Those the barrier in flight covers are its own: answered
// once it has passed if this node's quorum decided it, failed if not. The
// others are answered from the lease if it holds at this instant, or wait
// for a barrier, opened now if none is in flight and the ballot stands.
func (r *Node) serveReads() {
	for {
		ws, lease := r.reads.waiting, r.holdsLease(r.env.Now())
		r.reads.waiting = nil // a hook that reads again starts a list of its own
		covered := func(inst int) int { return sort.Search(len(ws), func(i int) bool { return ws[i].need > inst }) }
		keep, from := 0, 0 // ws[:from] are the barrier's, ws[:keep] still wait for it
		if b := r.reads.barrier; b >= 0 {
			from = covered(b)
			if keep = from; r.app.next > b {
				own := r.reads.barrierOwn
				keep, r.reads.barrier, r.reads.barrierOwn = 0, -1, false
				if own {
					r.lease.fallbackReads.Add(r.answerReads(ws[:from], false))
				}
			}
		}
		to := from
		if lease {
			to = len(ws)
			if r.pairDecides() { // a follower may have applied what this leader has not
				to = max(from, covered(r.app.next))
			}
			r.lease.localReads.Add(r.answerReads(ws[from:to], true))
		}
		r.reads.waiting = append(append(ws[:keep], ws[to:]...), r.reads.waiting...)
		if lease || len(r.reads.waiting) == 0 || r.reads.barrier >= 0 || !r.prop.prepared {
			return
		}
		r.openBarrier() // one process decides it inside propose: serve again
	}
}

// openBarrier proposes the shared no-op read barrier: all reads waiting
// when it opens coalesce onto it. The instance is recorded before propose
// runs: with a one-process majority the proposal decides — and applies —
// synchronously inside propose, and maybeDecide must already see it as the
// barrier to credit the own-quorum decision.
func (r *Node) openBarrier() {
	// A barrier opening is the read-path anomaly the flight recorder
	// watches for: the lease did not hold, so reads are paying a full
	// phase-2 round. Marked once per barrier, not per read.
	now := r.env.Now()
	r.cfg.Tracer.Mark(now, "fallback-read", -1)
	r.cfg.Tracer.Trigger(now, "fallback-read")
	r.reads.barrier = r.pipe.nextInst
	r.propose(consensus.Noop, nil)
}

// answerReads answers every request in reqs at the applied index of this
// instant and returns how many reads that was. Each origin gets one
// reply: its first request in the reply's own fields, the others packed
// behind it. Requests of this very replica go straight to the hook —
// stations refuse self-sends, and there is nothing to serialize anyway.
func (r *Node) answerReads(reqs []waitingRead, local bool) (reads uint64) {
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
				packed = appendSpan(packed, prev, q.ReadReqMsg)
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
