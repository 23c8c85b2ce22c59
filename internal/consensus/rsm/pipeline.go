package rsm

import (
	"slices"
	"time"

	"repro/internal/consensus"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/tracing"
)

// This file is the pipeline layer: windowed multi-instance phase 2. The
// prepared leader drives up to Config.Window instances concurrently, each
// a flight carrying one value (a single command or a batch envelope).
// Every instance costs (n−1) ACCEPT + (n−1) ACCEPTED, whatever the batch
// size, which is where batching's amortization comes from, and the value
// crosses each link once: decisions are announced by
// index (announceCommit), on the ACCEPT that leaves at the end of the same
// turn when one does, else by a value-free DECIDE to the replicas whose
// commands were decided — the rest hear on the next ACCEPT or from catchUp.

// retryTimeout bounds how long a prepare, an in-flight instance or a
// forwarded command may stall before being re-driven, and how long a
// request is held for a leadership not yet announced here (batch.go,
// hold); maxRetryTimeout caps retry backoffs.
const retryTimeout, maxRetryTimeout = 100 * time.Millisecond, 5 * time.Second

// flight is the leader-side state of one instance, in the pipeline from
// propose (or reopen) until the applier has passed it. Flights are recycled
// with their buffers, so a steady leader allocates none.
type flight struct {
	inst    int
	v       consensus.Value
	open    bool     // awaiting its quorum: counts against Config.Window
	acks    []uint64 // bitset over process ids
	acked   int      // bits set in acks
	started sim.Time
	timeout time.Duration // per-instance retry backoff
	// tctx is the instance's open "quorum" span (zero when untraced):
	// ACCEPTs broadcast under it, ACCEPTED arrivals are events on it,
	// and the majority closes it.
	tctx tracing.Context
	// tracked marks a proposal of queued commands: enq holds when each
	// command in v was enqueued, from which replica sent it, reqs their
	// trace contexts (empty when none is traced) and decidedAt the
	// quorum-completion instant, so apply can stamp latency, record the
	// final stage span and note who is owed the news.
	tracked   bool
	enq       []sim.Time
	from      []node.ID
	reqs      []tracing.Context
	decidedAt sim.Time
}

// ack records id's vote, once.
func (f *flight) ack(id node.ID) {
	w, bit := int(id)/64, uint64(1)<<(uint(id)%64)
	for len(f.acks) <= w {
		f.acks = append(f.acks, 0)
	}
	if f.acks[w]&bit == 0 {
		f.acks[w] |= bit
		f.acked++
	}
}

// pipeline is the leader-side phase-2 state.
type pipeline struct {
	nextInst int
	// flights are this replica's instances in flight, in instance order: a
	// window's worth and what a phase 1 re-opened, none on a follower.
	flights []*flight
	open    int       // flights awaiting their quorum
	free    []*flight // retired flights, buffers kept
	// told[f] is the commit index last sent to follower f at this ballot,
	// on an ACCEPT or a DECIDE (0 after an abdication): nobody is sent one
	// index twice. owed[f]: the applier has passed a command f waits on, and
	// the end of the turn tells it. acceptAt: when an ACCEPT last left.
	told     []int
	owed     []bool
	acceptAt sim.Time
}

// find returns where inst's flight is, or would go, in flights.
func (p *pipeline) find(inst int) (int, bool) {
	return slices.BinarySearchFunc(p.flights, inst, func(fl *flight, inst int) int { return fl.inst - inst })
}

// at returns inst's flight, or nil.
func (p *pipeline) at(inst int) *flight {
	if i, ok := p.find(inst); ok {
		return p.flights[i]
	}
	return nil
}

// unhang takes inst's flight, if any, out of the pipeline: the applier is
// passing the instance.
func (p *pipeline) unhang(inst int) (fl *flight) {
	if i, ok := p.find(inst); ok {
		fl = p.flights[i]
		p.flights = slices.Delete(p.flights, i, i+1)
	}
	return fl
}

// alloc returns a blank flight.
func (p *pipeline) alloc() *flight {
	if k := len(p.free) - 1; k >= 0 {
		fl := p.free[k]
		p.free = p.free[:k]
		return fl
	}
	return &flight{}
}

// release recycles a flight the applier is done with.
func (p *pipeline) release(fl *flight) {
	*fl = flight{acks: fl.acks[:0], enq: fl.enq[:0], from: fl.from[:0], reqs: fl.reqs[:0]}
	p.free = append(p.free, fl)
}

// launch (re)starts phase 2 for inst at the current ballot with this
// node's own vote cast — durable before the ACCEPT broadcast shows it.
func (r *Node) launch(inst int, v consensus.Value, fl *flight) {
	i, ok := r.pipe.find(inst)
	if !ok {
		r.pipe.flights = slices.Insert(r.pipe.flights, i, nil)
	}
	fl.inst, r.pipe.flights[i] = inst, fl
	if !fl.open {
		fl.open = true
		r.pipe.open++
	}
	fl.v, fl.started, fl.timeout = v, r.env.Now(), 0
	clear(fl.acks)
	fl.acked = 0
	fl.ack(r.me)
	r.log.accept(inst, r.prop.ballot, v)
	r.cfg.Store.Accept(uint64(inst), uint64(r.prop.ballot), string(v))
	r.persisted()
	r.env.Broadcast(r.traced(fl.tctx, r.acceptMsg(inst, v)))
}

// propose drives value v in a fresh instance of the pipeline. fl, when
// non-nil, is a tracked flight already holding the enqueue times and
// trace contexts of the envelope's commands (batcher.take), in place
// before any message can decide the instance: the instance opens a
// "quorum" span under the first traced command and the applier later
// closes out every command's trace.
func (r *Node) propose(v consensus.Value, fl *flight) int {
	inst := r.pipe.nextInst
	r.pipe.nextInst++
	if fl == nil {
		fl = r.pipe.alloc()
	}
	for _, ctx := range fl.reqs {
		if ctx.Valid() {
			// Stage two: the quorum wait, open until a majority accepts.
			// One span per instance — a batch shares its first traced
			// command's trace.
			fl.tctx = r.cfg.Tracer.Start(r.env.Now(), ctx, "quorum")
			break
		}
	}
	r.launch(inst, v, fl)
	r.maybeDecide(inst)
	return inst
}

// reopen re-drives an existing instance at the current ballot — the
// leader-change path (re-proposals and no-op fillers). Bypasses the
// window: these instances block the decided prefix. A flight this node
// opened earlier is reused, tracked only while the value is still its own —
// and owing everyone (owe): a leader change is not the steady state.
func (r *Node) reopen(inst int, v consensus.Value) {
	fl := r.pipe.at(inst)
	if fl == nil {
		fl = r.pipe.alloc()
	}
	fl.tracked, fl.from = fl.tracked && fl.v == v, fl.from[:0]
	fl.tctx = tracing.Context{}
	r.launch(inst, v, fl)
}

// redrive rebroadcasts stalled instances, lowest first, with per-instance
// backoff: from the floor up, as nothing below it was proposed at this ballot.
func (r *Node) redrive(now sim.Time) {
	for _, fl := range r.pipe.flights {
		if !fl.open || fl.inst < r.prop.floor {
			continue
		}
		if fl.timeout == 0 {
			fl.timeout = retryTimeout
		}
		if now.Sub(fl.started) >= fl.timeout {
			fl.started = now
			if fl.timeout < maxRetryTimeout {
				fl.timeout *= 2
			}
			r.env.Broadcast(r.traced(fl.tctx, r.acceptMsg(fl.inst, fl.v)))
		}
	}
}

// onAccept is the acceptor's phase-2 handler.
func (r *Node) onAccept(from node.ID, m AcceptMsg) {
	if m.B == decidedB {
		return // no vote can be held at it
	}
	if v, decided := r.log.get(m.Inst); decided {
		r.env.Send(from, r.decides.New(DecideMsg{Inst: m.Inst, V: v}))
		return
	}
	if m.Inst < r.log.low {
		return // forgotten: decided and applied cluster-wide long ago
	}
	if m.B >= r.acc.promised {
		if !r.log.reaches(m.Inst) {
			// No vote; a replica really this far behind hears so, and asks.
			r.onCommit(m.B, m.CommitUpTo)
			return
		}
		now := r.env.Now()
		r.acc.promised = m.B
		r.log.accept(m.Inst, m.B, m.V)
		r.acc.lastAcceptAt = now
		// Durable before visible: the vote must survive a crash once the
		// ACCEPTED is out. The record also implies the promise at m.B, so
		// no separate promise record is written here.
		r.cfg.Store.Accept(uint64(m.Inst), uint64(m.B), string(m.V))
		r.persisted()
		// The ACCEPTED doubles as the lease ack for a piggybacked grant.
		ack := r.noteGrant(m.B, m.LeaseSeq, now)
		// A traced ACCEPT earns a synchronous "accept" span here and the
		// reply carries that span's context back, closing the round trip
		// in the trace tree. Untraced (or tracing off): plain send.
		actx := r.cfg.Tracer.Record(now, now, r.curCtx, "accept", int(from), "")
		r.env.Send(from, r.traced(actx, r.accepteds.New(AcceptedMsg{B: m.B, Inst: m.Inst, Done: r.log.firstGap, LeaseSeq: ack})))
		r.onCommit(m.B, m.CommitUpTo)
		if m.B == r.acc.commitB && m.Inst < r.acc.commitUpTo {
			// The links are not FIFO: this ACCEPT was overtaken by the
			// commit index that covers it, so it decides on arrival.
			r.learn(m.Inst, m.V)
		}
		r.log.forgetBelow(m.MinDone)
	} else {
		r.env.Send(from, NackMsg{B: m.B, Promised: r.acc.promised})
	}
}

func (r *Node) onAccepted(from node.ID, m AcceptedMsg) {
	r.dones.observe(from, m.Done)
	if m.B != r.prop.ballot {
		return
	}
	r.onLeaseAck(from, m.B, m.LeaseSeq)
	fl := r.pipe.at(m.Inst)
	if fl == nil || !fl.open {
		return
	}
	fl.ack(from)
	r.cfg.Tracer.Event(r.env.Now(), fl.tctx, "accepted", int(from))
	r.maybeDecide(m.Inst)
}

func (r *Node) maybeDecide(inst int) {
	fl := r.pipe.at(inst)
	if fl == nil || !fl.open || fl.acked < consensus.Majority(r.n) {
		return
	}
	v := fl.v // learn closes the flight, and may apply the instance and recycle it
	if fl.tctx.Valid() {
		now := r.env.Now()
		r.cfg.Tracer.End(now, fl.tctx) // quorum complete
		fl.decidedAt = now             // start of the apply stage for this batch
	}
	if inst == r.reads.barrier {
		// Our own ack quorum at our own ballot decided the read barrier —
		// the completion proof completeFallbackReads requires.
		r.reads.barrierOwn = true
	}
	r.learn(inst, v)
	// A window slot freed up: the end of the turn pulls in queued work. An
	// ACCEPT leaving then carries the new commit index to everyone; otherwise
	// it goes to whoever waits on it.
	r.pumpDue, r.commitDue = true, true
}

// owe notes who waits on the instance the applier has just passed at a
// prepared leader: the replicas whose commands this leader batched into it.
// One it did not batch, or reopened at a new ballot — a re-proposal, a gap
// filler, a read barrier — owes everyone: a leader change is not the steady
// state, and its clients may be anywhere.
func (r *Node) owe(batched bool, fl *flight) {
	for f := range r.pipe.owed { // a sender id outside [0, n) matches nobody
		if !batched || len(fl.from) == 0 || slices.Contains(fl.from, node.ID(f)) {
			r.pipe.owed[f] = true
		}
	}
}

// tell sends follower f the commit index, unless it has been sent it.
func (r *Node) tell(f node.ID) {
	if f != r.me && r.pipe.told[f] < r.log.firstGap {
		r.pipe.told[f] = r.log.firstGap
		r.env.Send(f, r.decides.New(DecideMsg{B: r.prop.ballot, Inst: r.log.firstGap}))
	}
}

// announceCommit tells the replicas that are owed it how far the log is
// decided, once per advance of the prefix: an instance decided out of
// order, which nobody could apply anyway, waits for the ones below it and
// is covered by the same announcement. ACCEPTs carry the index to everyone
// for free (acceptMsg), so a value-free DECIDE goes only to a replica whose
// client waits and that no ACCEPT has told since the prefix moved: it hears
// in the event the quorum completes, as it always has. The others hear on
// the next ACCEPT, or from catchUp when none comes. That is safe: a learner
// that decides late violates nothing, reads are positioned by the leader,
// and a successor re-proposes from votes, not from what anyone had heard.
func (r *Node) announceCommit() {
	if !r.prop.prepared {
		return // abdicated since the quorum: nothing is owed (abdicateLeader)
	}
	for f, owed := range r.pipe.owed {
		if owed {
			r.pipe.owed[f] = false
			r.tell(node.ID(f))
		}
	}
}

// quiet is how long after its last ACCEPT a stream counts as idle: half the
// time a follower's votes take to go stale (fillGaps), or a tick if less.
func (r *Node) quiet() time.Duration { return min(r.cfg.DriveInterval, retryTimeout/2) }

// catchUp runs on the leader's drive. On an idle stream it sends every
// follower the index it has not been sent, so the end of a burst is decided
// everywhere with no follower asking; while ACCEPTs flow it sends nothing
// and brings the next drive forward to the instant they would have gone
// quiet — as every ACCEPT does (acceptMsg), for a tick longer than that.
func (r *Node) catchUp(now sim.Time) {
	if wait := r.quiet() - now.Sub(r.pipe.acceptAt); wait > 0 {
		r.driveIn(now, wait)
		return
	}
	for f := range r.pipe.told {
		r.tell(node.ID(f))
	}
}

// acceptMsg builds a phase-2 broadcast carrying the current commit index
// (noted as told to everyone), forgetting horizon, and lease grant.
func (r *Node) acceptMsg(inst int, v consensus.Value) *AcceptMsg {
	m := AcceptMsg{B: r.prop.ballot, Inst: inst, V: v, CommitUpTo: r.log.firstGap, MinDone: r.dones.min()}
	for f := range r.pipe.told {
		r.pipe.told[f] = m.CommitUpTo // never below what f was told: firstGap only grows
	}
	now := r.env.Now()
	r.pipe.acceptAt = now
	r.driveIn(now, r.quiet()) // catchUp is due then, should no ACCEPT follow
	m.LeaseSeq = r.grantSeq(now)
	return r.accepts.New(m)
}
