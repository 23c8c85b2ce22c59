package rsm

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/consensus"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/tracing"
)

// This file is the batching layer: the ring of queued client commands and
// the envelope codec that packs many commands into one proposable value. A
// batch of k commands costs the phase-2 traffic of one — an ACCEPT and an
// ACCEPTED per answering follower, n messages at n = 3, and the commit
// index, on the next ACCEPT or a value-free DECIDE per replica it came from
// — so throughput scales with Config.BatchMax, the cost per instance flat.

// batchPrefix marks an encoded batch envelope. Client commands are
// opaque; one that happens to start with the marker is wrapped in a
// (single-command) envelope so decoding stays unambiguous.
const batchPrefix = "\x00b"

// MaxValue caps the bytes of a proposed value so that the ACCEPT carrying it
// fits a wire frame (wire.MaxFrame, 1 MiB) inside both wrappers; a test in
// internal/wire holds the two together. A batch closes before it would pass
// the cap, and a command that would pass it alone is refused (admit).
const MaxValue = 1<<20 - 1<<8

// cmdLen is what cmd adds to an envelope: its length prefix and its bytes.
func cmdLen(cmd consensus.Value) int { return uvarintLen(len(cmd)) + len(cmd) }

// encodeBatch packs commands into one proposable value, cut from a (the
// batcher's vals). A lone command without the marker prefix is proposed raw
// — the unbatched fast path keeps old logs, tests and tools readable — but
// copied all the same: the log keeps what it proposes, and a lone command
// came over a socket as a substring of the chunk its connection's decoder cut
// it from (wire.ConnDecoder), which one kept command would pin whole.
func encodeBatch(a *node.Arena, cmds []consensus.Value) consensus.Value {
	if len(cmds) == 1 && !strings.HasPrefix(string(cmds[0]), batchPrefix) {
		a.Grow(len(cmds[0])).WriteString(string(cmds[0]))
		return consensus.Value(a.Cut())
	}
	size := len(batchPrefix) + uvarintLen(len(cmds))
	for _, c := range cmds {
		size += cmdLen(c)
	}
	sb := a.Grow(size) // sized exactly: the value is built once, in place
	sb.WriteString(batchPrefix)
	var num [binary.MaxVarintLen64]byte
	sb.Write(num[:binary.PutUvarint(num[:], uint64(len(cmds)))])
	for _, c := range cmds {
		sb.Write(num[:binary.PutUvarint(num[:], uint64(len(c)))])
		sb.WriteString(string(c))
	}
	return consensus.Value(a.Cut())
}

// uvarintLen is how many bytes binary.PutUvarint spends on x.
func uvarintLen(x int) int { return (bits.Len(uint(x)|1) + 6) / 7 }

// uvarint is binary.Uvarint over a string (it never looks past
// MaxVarintLen64 bytes, so that much on the stack is enough).
func uvarint(s string) (uint64, int) {
	var num [binary.MaxVarintLen64]byte
	return binary.Uvarint(num[:copy(num[:], s)])
}

// cutCmd splits the first length-prefixed command off s.
func cutCmd(s string) (cmd, rest string, ok bool) {
	size, n := uvarint(s)
	if n <= 0 || uint64(len(s)-n) < size {
		return "", "", false
	}
	return s[n : n+int(size)], s[n+int(size):], true
}

// eachCmd calls fn, in order, with every command packed in a proposed
// value: substrings of v, nothing allocated. A value without the marker
// is a single raw command, and so is a malformed envelope (impossible
// from encodeBatch) — a corrupt value can at worst apply as one odd
// command rather than derail the applier.
func eachCmd(v consensus.Value, fn func(k int, cmd consensus.Value)) {
	body, ok := strings.CutPrefix(string(v), batchPrefix)
	count, n := uvarint(body)
	if ok = ok && n > 0; ok {
		body = body[n:]
		// Validate before yielding anything: a command cannot be taken back.
		for rest, i := body, uint64(0); ok && i < count; i++ {
			_, rest, ok = cutCmd(rest)
		}
	}
	if !ok {
		fn(0, v)
		return
	}
	for k := 0; uint64(k) < count; k++ {
		var cmd string
		cmd, body, _ = cutCmd(body)
		fn(k, consensus.Value(cmd))
	}
}

// pendingCmd is one locally submitted command not yet applied anywhere
// this replica knows of.
type pendingCmd struct {
	v consensus.Value
	// enq is when this replica queued the command — the start of the
	// per-command latency the applier stamps on Decisions.
	enq        sim.Time
	lastSentTo node.ID
	lastSentAt sim.Time
	// tctx is the command's trace context (zero when unsampled), carried
	// from ingress through forwarding, batching and apply.
	tctx tracing.Context
	// from is the replica a leader got the command from — the sender of
	// its REQ, itself for Submit: who waits to hear it decided (owe).
	from node.ID
}

// batcher is the client-command queue: a ring of pendingCmd values. On a
// leader, commands wait here until pump packs them into batches; on a
// follower they are forwarded (and re-forwarded) to the believed leader
// until seen applied.
//
// head, next and tail count commands ever retired, assigned and added,
// head ≤ next ≤ tail, and command i lives in ring[i&(len-1)]: [head,next)
// ride in instances this leader proposed, [next,tail) wait for one, and
// whether a batch can be formed is a subtraction, not a scan. A leader
// that steps down or loses an instance to a competing ballot un-assigns
// everything: proposed again, at-least-once as Submit documents.
//
// On a follower, [head,fwd) are stamped as forwarded to fwdTo, none of
// them before fwdOldest: while that leader stands and that instant is
// inside the retry timeout, forwarding has nothing to do below fwd and a
// Submit costs its own command, not a walk over everything outstanding.
// It is a summary of the per-command stamps, never consulted in their
// place: whatever else writes a stamp (take) voids it, and the next
// forward walks the whole ring again.
type batcher struct {
	ring             []pendingCmd // len is a power of two
	head, next, tail int
	cmds             []consensus.Value // take's scratch: the batch being encoded
	vals             node.Arena        // what the values proposed are cut from

	fwd       int
	fwdTo     node.ID
	fwdOldest sim.Time
}

func (b *batcher) at(i int) *pendingCmd { return &b.ring[i&(len(b.ring)-1)] }

// add queues a command.
func (b *batcher) add(v consensus.Value, now sim.Time, tctx tracing.Context, from node.ID) {
	if b.tail-b.head == len(b.ring) {
		grown := batcher{ring: make([]pendingCmd, max(16, 2*len(b.ring)))}
		for i := b.head; i < b.tail; i++ {
			*grown.at(i) = *b.at(i)
		}
		b.ring = grown.ring
	}
	*b.at(b.tail) = pendingCmd{v: v, enq: now, lastSentTo: node.None, tctx: tctx, from: from}
	b.tail++
}

// take assigns up to the next k commands to leader me, as many as an
// envelope of MaxValue bytes holds, and returns their values (valid until
// the next take), leaving their enqueue times, origins and — when any is
// traced — trace contexts in fl's buffers.
func (b *batcher) take(k int, me node.ID, now sim.Time, fl *flight) []consensus.Value {
	b.cmds, fl.enq, fl.reqs, fl.from = b.cmds[:0], fl.enq[:0], fl.reqs[:0], slices.Grow(fl.from[:0], k)
	b.fwdTo = node.None // the stamps below are not forwards
	traced, size := false, len(batchPrefix)+uvarintLen(k)
	for ; k > 0; k-- {
		p := b.at(b.next)
		if size += cmdLen(p.v); size > MaxValue && len(b.cmds) > 0 {
			break // the rest go in the next instance
		}
		b.next++
		p.lastSentTo, p.lastSentAt = me, now
		b.cmds = append(b.cmds, p.v)
		fl.enq = append(fl.enq, p.enq)
		fl.reqs = append(fl.reqs, p.tctx)
		fl.from = append(fl.from, p.from)
		traced = traced || p.tctx.Valid()
	}
	if !traced {
		fl.reqs = fl.reqs[:0]
	}
	return b.cmds
}

// unassign hands every assigned command back to the queue.
func (b *batcher) unassign() { b.next = b.head }

// retire drops the first pending command matching an applied value —
// the head, when a leader applies what it proposed in order.
func (b *batcher) retire(v consensus.Value) {
	for i := b.head; i < b.tail; i++ {
		if b.at(i).v != v {
			continue
		}
		for j := i; j > b.head; j-- {
			*b.at(j) = *b.at(j - 1) // close the hole from the head side
		}
		*b.at(b.head) = pendingCmd{}
		b.head++
		if i >= b.next {
			b.next++ // the assigned prefix moved up by one
		}
		if i >= b.fwd {
			b.fwd++ // and so did the forwarded one
		}
		return
	}
}

// pump packs queued commands into batches and feeds the pipeline while
// the window has room. Policy: a full batch goes immediately; a partial
// batch goes only when nothing is in flight or on the drive tick (force),
// so bursts coalesce but queue latency stays bounded by one DriveInterval.
// Handlers do not call it: they set pumpDue and the end of the turn pumps
// once (turn.go).
func (r *Node) pump(force bool) {
	if !r.prop.prepared {
		return
	}
	for r.pipe.open < r.cfg.Window {
		k := min(r.bat.tail-r.bat.next, r.cfg.BatchMax)
		if k == 0 || (k < r.cfg.BatchMax && !force && r.pipe.open > 0) {
			return // nothing queued, or a partial batch that can still fill
		}
		now := r.env.Now()
		fl := r.pipe.alloc()
		fl.tracked = true
		cmds := r.bat.take(k, r.me, now, fl)
		for i, ctx := range fl.reqs {
			// Stage one of a traced command's life: the queue wait,
			// enqueue to batch formation.
			r.cfg.Tracer.Record(fl.enq[i], now, ctx, "queue", -1, "")
		}
		r.propose(encodeBatch(&r.bat.vals, cmds), fl)
	}
}

// forwardPending sends unserved local commands to the believed leader:
// every one not yet sent to it, or sent a retryTimeout ago, in queue
// order.
func (r *Node) forwardPending(leader node.ID) {
	if leader == node.None || leader == r.me {
		return
	}
	b, now := &r.bat, r.env.Now()
	from := b.fwd
	if b.fwdTo != leader || now.Sub(b.fwdOldest) > retryTimeout {
		from, b.fwdOldest = b.head, now // the summary says nothing: walk it all
	}
	for i := from; i < b.tail; i++ {
		p := b.at(i)
		if p.lastSentTo == leader && now.Sub(p.lastSentAt) <= retryTimeout {
			b.fwdOldest = min(b.fwdOldest, p.lastSentAt)
			continue
		}
		p.lastSentTo = leader
		p.lastSentAt = now
		r.env.Send(leader, r.traced(p.tctx, r.requests.New(RequestMsg{V: p.v})))
	}
	b.fwd, b.fwdTo = b.tail, leader
}

// DecodeBatch unpacks a decided value into its constituent commands —
// the offline counterpart of the applier's fan-out, for tools replaying
// recovered logs (cmd/chaossoak's replay-equivalence check). A value
// without the batch marker is one raw command.
func DecodeBatch(v consensus.Value) []consensus.Value { return appendCmds(nil, v) }

// appendCmds appends v's commands to cmds: the Recorder's splitter.
func appendCmds(cmds []consensus.Value, v consensus.Value) []consensus.Value {
	eachCmd(v, func(_ int, cmd consensus.Value) { cmds = append(cmds, cmd) })
	return cmds
}

// admit reports whether v may be queued: a command that even an instance of
// its own could not carry is dropped, with a log line.
func (r *Node) admit(v consensus.Value) bool {
	ok := len(batchPrefix)+1+cmdLen(v) <= MaxValue
	if !ok && r.env != nil {
		r.env.Logf("rsm: dropped a %d-byte command: an instance carries at most %d bytes", len(v), MaxValue)
	}
	return ok
}

// onRequest queues a REQ's value as one command, whatever its bytes.
func (r *Node) onRequest(from node.ID, m RequestMsg) {
	if !r.admit(m.V) {
		return
	}
	if r.omega.Leader() != r.me {
		r.hold(heldReq{v: m.V, tctx: r.curCtx, from: from})
		return
	}
	// A leader-elect still in phase 1 queues too: the forwarder has
	// stamped the command as sent and would sit on it for a retryTimeout.
	// maybeFinishPrepare pumps the queue the moment the ballot stands.
	r.enqueue(m.V, r.env.Now(), r.curCtx, from)
}

// enqueue puts a request's command on the pending queue. A traced request
// (wrapped by the client or a forwarding replica) hands it its context; the
// sampling decision stays with the trace originator.
func (r *Node) enqueue(v consensus.Value, at sim.Time, tctx tracing.Context, from node.ID) {
	r.bat.add(v, at, tctx, from)
	r.pumpDue = true
}

// maxHeld caps the hand-over buffer: past it a request is shed, as a read
// past maxPendingReads is, and its sender retries.
const maxHeld = maxPendingReads

// heldReq is one held request: a REQ's value, trace context and sender, or
// a READ-REQ (read.Count > 0), and when it arrived.
type heldReq struct {
	at   sim.Time
	v    consensus.Value
	tctx tracing.Context
	from node.ID
	read ReadReqMsg
}

// hold keeps a request that reached this replica while its Omega names
// another: a forwarder's view moves a fraction of a link delay before the
// successor's own, and a request dropped in that window costs its sender
// a retryTimeout. It waits for the edge that names this replica (adoptHeld)
// or for retryTimeout (expireHeld), when the sender's re-forward takes over,
// and is never forwarded onward: two replicas naming each other would
// bounce it at link speed while they disagree.
func (r *Node) hold(h heldReq) {
	if len(r.held) < maxHeld {
		h.at = r.env.Now()
		r.held = append(r.held, h)
	}
}

// expireHeld drops what has been held for longer than retryTimeout.
func (r *Node) expireHeld(now sim.Time) {
	i := 0
	for i < len(r.held) && now.Sub(r.held[i].at) > retryTimeout {
		i++
	}
	r.held = slices.Delete(r.held, 0, i) // in place, the freed tail zeroed
}

// adoptHeld hands what is held to the leadership Omega has just given
// this replica: writes onto the pending queue, queued since they arrived
// and proposed when the ballot stands, reads among this turn's reads.
func (r *Node) adoptHeld() {
	for i := range r.held {
		if h := &r.held[i]; h.read.Count > 0 {
			r.onReadReq(r.me, h.read) // noted: this replica leads
		} else {
			r.enqueue(h.v, h.at, h.tctx, h.from)
		}
	}
	r.held = nil // a leader holds nothing: the buffer goes back
}
