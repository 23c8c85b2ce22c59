package rsm

import (
	"encoding/binary"
	"math"
	"sort"

	"repro/internal/node"
	"repro/internal/sim"
)

// This file is the read path. A linearizable read must observe every
// write that completed before it was issued. The leader notes each read
// with its need: the first instance it had not launched when the read's
// turn began (what a turn launches leaves at its end). A write completed
// before the read is below need, or in an older ballot's instance that
// phase 1 re-proposed or found decided (proposer.go); a read is answered
// only at an applied index that covers its need, once those are decided
// here (ready).
//
// That leaves one thing to prove: that no other ballot has decided anything
// since the read arrived. A majority's acks of a grant (lease.go) issued
// after the read was noted prove it — Raft's ReadIndex (Ongaro's thesis,
// §6.4) on the grants the lease already sends. Each read is stamped with
// the grant current when it was noted; a later grant, and every ack of it,
// left after the read arrived. An acceptor promised above a grant's ballot
// NACKs it and the leader abdicates, so a majority of acks means no higher
// ballot had completed phase 1 when they were sent: the two majorities would
// meet in an acceptor that refuses one of them. At n ≥ 4 only the leader
// decides first at its ballot; at n = 3 a follower decides what it votes for
// (pipeline.go, pairDecides), so a read also waits for the applier to pass
// its need.
//
// While the leader holds its lease, the acks in hand prove as much for the
// lease window: reads are answered at once, with zero consensus messages.
// Otherwise the reads no acked grant confirms wait for a round — the next
// grant, sent as a LeaseGrantMsg when none is in flight, and shared by
// every read noted before it left; one that arrives later waits for the
// next. A round a majority has not acked within a retryTimeout is issued
// anew. No read consumes a log instance.
//
// Reads are the third user of the turn (turn.go). A request that reaches
// the leader is only noted; the end of the turn serves every read it can
// at once (serveReads): one clock read, one lease check, one sample of the
// applied index — taken after the turn's quorums have applied — and one
// READ-REPLY per origin carrying every request that origin made. Sharing an
// answer is linearizable for the reason sharing a round is: the index is
// sampled, and the lease checked, between each read's arrival and its
// reply. Whatever deposes this leader later in the same turn
// (abdicateLeader) drops the waiting reads, so nothing is answered after
// this node helped a competitor. Outside a turn each call is one.

// maxPendingReads caps the reads waiting at the leader. One whose round
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
	round   uint64        // the grant the read round in flight awaits, 0 when none
	roundAt sim.Time      // when that grant was issued
	packed  []byte        // answerReads' scratch: the reply being packed
	tails   node.Arena    // what answerReads cuts the packed tails from: not the batcher's, whose values the log keeps
	onReply func(ReadReplyMsg)
}

// waitingRead is a read with its need and the grant current when it was
// noted, neither of which falls along the list.
type waitingRead struct {
	ReadReqMsg
	need  int
	grant uint64
}

// Read submits Count reads numbered [Seq, Seq+Count) from this replica.
// The reply arrives through the OnReadReply hook — locally, at the end of
// the turn, when this replica is the lease-holding leader, otherwise
// after a forward to the believed leader. Unknown leader or lost messages
// mean no reply: clients retry with the same sequence numbers. Like
// Submit, Read runs on the node's event loop; a READ delivered from this
// replica itself is the same call.
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
		r.reads.waiting = append(r.reads.waiting, waitingRead{m, r.reads.need, r.lease.seq})
	}
}

// ready reports whether this leader can answer reads at all: prepared, and
// decided past the floor and what phase 1 re-proposed, any of which may be
// decided and acknowledged elsewhere (the links are not FIFO).
func (r *Node) ready() bool {
	return r.prop.prepared && r.log.firstGap >= max(r.prop.floor, r.prop.reopenedEnd)
}

// serveReads answers a prefix of the waiting reads: all of them while the
// lease holds, else those stamped below the grant a majority has acked — at
// n = 3 only those whose need the applier has passed — and opens a round
// for the rest if none is in flight.
func (r *Node) serveReads() {
	for {
		ws, q, now := r.reads.waiting, r.quorumSeq(), r.env.Now()
		lease := r.holdsLease(now)
		r.reads.waiting = nil // a hook that reads again starts a list of its own
		from, to := 0, 0      // ws[:from] were confirmed by a round, ws[from:to] are the lease's
		if r.ready() {
			from = sort.Search(len(ws), func(i int) bool { return ws[i].grant >= q })
			to = from
			if lease {
				from, to = min(from, sort.Search(len(ws), func(i int) bool { return ws[i].grant >= r.reads.round })), len(ws)
			}
			if r.pairDecides() { // a follower may have applied what this leader has not
				k := sort.Search(len(ws), func(i int) bool { return ws[i].need > r.app.next })
				from, to = min(from, k), min(to, k)
			}
			r.lease.fallbackReads.Add(r.answerReads(ws[:from], false))
			r.lease.localReads.Add(r.answerReads(ws[from:to], true))
		}
		r.reads.waiting = append(append(ws[:0], ws[to:]...), r.reads.waiting...)
		w := r.reads.waiting
		inFlight := r.reads.round > q && now.Sub(r.reads.roundAt) < retryTimeout // else lost: issue it anew
		if lease || !r.prop.prepared || len(w) == 0 || w[len(w)-1].grant < q || inFlight {
			return
		}
		r.openRound() // one process confirms it at once: serve again
	}
}

// openRound sends the next grant for the reads waiting unconfirmed:
// the read-path anomaly the flight recorder watches for (the lease did not
// hold), marked once per round, not per read.
func (r *Node) openRound() {
	now := r.env.Now()
	r.cfg.Tracer.Mark(now, "fallback-read", -1)
	r.cfg.Tracer.Trigger(now, "fallback-read")
	r.reads.round, r.reads.roundAt = r.nextGrant(now), now
	r.lease.lastSent = now
	r.fanOut(LeaseGrantMsg{B: r.prop.ballot, Seq: r.reads.round}, nil)
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
		if r.reads.packed = packed; !first {
			reply.More = r.reads.tails.Copy(packed)
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
