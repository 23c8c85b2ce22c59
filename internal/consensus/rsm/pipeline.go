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
// Every instance costs one ACCEPT and one ACCEPTED per answering follower at
// n ≥ 4, whatever the batch size, which is where batching's amortization
// comes from, and the value crosses each link once: decisions are announced
// by index (announceCommit), on the ACCEPT that leaves at the end of the
// same turn when one does, else by a value-free DECIDE to the replicas whose
// commands were decided — the rest hear on the next ACCEPT or from catchUp.
// At n = 3 a follower decides on its own vote (pairDecides): no DECIDE is
// owed, one follower named on the ACCEPT replies, and an instance costs n
// messages. Everything the leader streams to its followers goes through one
// fan-out (fanOut), which skips a follower that has stopped answering: a
// silent follower costs one probe per retryTimeout (reach).

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
	all     bool     // launched asking every follower to reply
	acks    []uint64 // bitset over process ids
	acked   int      // bits set in acks
	started sim.Time
	timeout time.Duration // per-instance retry backoff
	// tctx is the instance's open "quorum" span (zero when untraced):
	// ACCEPTs are sent under it, ACCEPTED arrivals are events on it,
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
	flights  []*flight
	open     int       // flights awaiting their quorum
	free     []*flight // retired flights, buffers kept
	acceptAt sim.Time  // when an ACCEPT last left
	named    uint64    // the one follower a fresh ACCEPT asks at a quorum of two
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
// node's own vote cast — durable before the ACCEPT shows it —
// asking the followers in ask (0: all) to reply.
func (r *Node) launch(inst int, v consensus.Value, fl *flight, ask uint64) {
	i, ok := r.pipe.find(inst)
	if !ok {
		r.pipe.flights = slices.Insert(r.pipe.flights, i, nil)
	}
	fl.inst, r.pipe.flights[i] = inst, fl
	if !fl.open {
		fl.open = true
		r.pipe.open++
	}
	fl.v, fl.started, fl.timeout, fl.all = v, r.env.Now(), retryTimeout, ask == 0
	if !fl.all {
		fl.timeout = r.quiet() // a named replier is not waited for longer (redrive)
	}
	clear(fl.acks)
	fl.acked = 0
	fl.ack(r.me)
	r.log.accept(inst, r.prop.ballot, v)
	r.cfg.Store.Accept(uint64(inst), uint64(r.prop.ballot), string(v))
	r.persisted()
	a := r.acceptMsg(inst, v, ask)
	r.fanOut(r.traced(fl.tctx, a), a)
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
	ask, now := r.pipe.named, r.env.Now() // pinned by onAccepted, only where pairDecides
	for f, p := range r.peers {
		if node.ID(f) != r.me && ask>>uint(f)&1 == 0 && now.Sub(p.asked) >= retryTimeout {
			ask = 0 // once a retryTimeout: the unnamed follower's Done stays current
		}
	}
	r.launch(inst, v, fl, ask)
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
	r.launch(inst, v, fl, 0)
}

// redrive re-sends stalled instances to everyone, lowest first, with
// per-instance backoff: from the floor up, as nothing below it was proposed
// at this ballot. It unpins the named replier, and an answer pins nobody:
// a replier slower than quiet would re-pin itself answering its own ACCEPT.
func (r *Node) redrive(now sim.Time) {
	for _, fl := range r.pipe.flights {
		if !fl.open || fl.inst < r.prop.floor {
			continue
		}
		if now.Sub(fl.started) >= fl.timeout {
			fl.started, r.pipe.named = now, 0
			if fl.timeout < maxRetryTimeout {
				fl.timeout = max(2*fl.timeout, retryTimeout)
			}
			a := r.acceptMsg(fl.inst, fl.v, 0)
			r.fanOut(r.traced(fl.tctx, a), a)
		}
	}
}

// onAccept is the acceptor's phase-2 handler.
func (r *Node) onAccept(from node.ID, m AcceptMsg) {
	if m.B == decidedB {
		return // no vote can be held at it
	}
	if v, decided := r.decision(m.Inst); decided {
		r.env.Send(from, r.decides.New(DecideMsg{Inst: m.Inst, V: v}))
		return
	}
	if m.Inst < r.log.live {
		// decision served [low, live): this is below the horizon, applied
		// cluster-wide long ago. Guarding on live keeps a vote off the
		// released slots even were the Recorder to miss.
		return
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
		r.noteGrant(m.B, m.LeaseSeq, now)
		// A traced ACCEPT earns a synchronous "accept" span here and the
		// reply carries that span's context back, closing the round trip
		// in the trace tree. Untraced (or tracing off): plain send.
		// A follower the ACCEPT does not name votes in silence (Repliers).
		if m.Repliers == 0 || m.Repliers>>uint(r.me)&1 != 0 {
			actx := r.cfg.Tracer.Record(now, now, r.curCtx, "accept", int(from), "")
			r.env.Send(from, r.traced(actx, r.accepteds.New(AcceptedMsg{B: m.B, Inst: m.Inst, Done: r.log.firstGap, LeaseSeq: m.LeaseSeq})))
		}
		if r.pairDecides() && m.B.Owner(r.n) == from {
			// The owner's vote was durable before its ACCEPT left (launch): with
			// this one it is a quorum of two for m.V at m.B, decided once the
			// end of the turn has flushed this vote too (decideRipe).
			r.acc.ripe = append(r.acc.ripe, ripeVote{m.Inst, m.B})
		}
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

// pairDecides reports whether a follower's vote together with its ballot
// owner's decides an instance: a quorum is two. A follower may then apply
// what its leader has not, and lease reads wait for their need (read.go).
func (r *Node) pairDecides() bool { return consensus.Majority(r.n) == 2 }

// decideRipe learns the votes this turn cast that decide their instance
// (onAccept), now that the flush has made them durable: nothing is applied
// on a vote a crash could lose. A slot revoted since at another ballot is
// left to that vote.
func (r *Node) decideRipe() {
	for _, rv := range r.acc.ripe {
		if s := r.log.at(rv.inst); s != nil && s.b == rv.b {
			r.learn(rv.inst, s.v)
		}
	}
	r.acc.ripe = r.acc.ripe[:0]
}

func (r *Node) onAccepted(from node.ID, m AcceptedMsg) {
	r.observe(from, m.Done)
	if m.B != r.prop.ballot {
		return
	}
	r.onLeaseAck(from, m.B, m.LeaseSeq)
	fl := r.pipe.at(m.Inst)
	if fl == nil || !fl.open {
		return
	}
	if fl.ack(from); fl.all && fl.acked == 2 && r.pairDecides() {
		r.pipe.named = 1 << uint(from) // the first to answer everyone's ACCEPT
	}
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
	r.learn(inst, v)
	// A window slot freed up: the end of the turn pulls in queued work. An
	// ACCEPT leaving then carries the new commit index to everyone; otherwise
	// it goes to whoever waits on it.
	r.pumpDue, r.commitDue = true, true
}

// owe notes who waits on the instance the applier has just passed at a
// prepared leader: the replicas whose commands this leader batched into it.
// One it did not batch, or reopened at a new ballot — a re-proposal or a gap
// filler — owes everyone: a leader change is not the steady state, and its
// clients may be anywhere. At a quorum of two one it batched owes nobody:
// each origin decided it on its own vote (pairDecides).
func (r *Node) owe(batched bool, fl *flight) {
	for f := range r.peers { // a sender id outside [0, n) matches nobody
		if !batched || len(fl.from) == 0 || (slices.Contains(fl.from, node.ID(f)) && !r.pairDecides()) {
			r.peers[f].owed = true
		}
	}
}

// tell sends the commit index to each follower owed it (each follower, when
// all) that has not been sent it and that the stream reaches now (reach);
// none is owed it after.
func (r *Node) tell(all bool) {
	for f := range r.peers {
		p := &r.peers[f]
		if (all || p.owed) && p.told < r.log.firstGap && r.reach(node.ID(f), r.env.Now(), false) {
			p.told = r.log.firstGap
			r.env.Send(node.ID(f), r.decides.New(DecideMsg{B: r.prop.ballot, Inst: r.log.firstGap}))
		}
		p.owed = false
	}
}

// announceCommit tells the replicas that are owed it how far the log is
// decided, once per advance of the prefix: an instance decided out of
// order, which nobody could apply anyway, waits for the ones below it and
// is covered by the same announcement. ACCEPTs carry the index for free to
// every follower they reach (fanOut), so a DECIDE goes only to a replica whose
// client waits and that no ACCEPT has told since the prefix moved: it hears
// in the event the quorum completes, as it always has. The others hear on
// the next ACCEPT, or from catchUp when none comes. That is safe: a learner
// that decides late violates nothing, reads are positioned by the leader,
// and a successor re-proposes from votes, not from what anyone had heard.
func (r *Node) announceCommit() {
	if !r.prop.prepared {
		return // abdicated since the quorum: nothing is owed (abdicateLeader)
	}
	r.tell(false)
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
	r.tell(true)
}

// acceptMsg builds a phase-2 ACCEPT carrying the current commit index,
// forgetting horizon, and lease grant.
func (r *Node) acceptMsg(inst int, v consensus.Value, ask uint64) *AcceptMsg {
	m := AcceptMsg{B: r.prop.ballot, Inst: inst, V: v, CommitUpTo: r.log.firstGap, MinDone: r.minDone(), Repliers: ask}
	now := r.env.Now()
	r.pipe.acceptAt = now
	r.driveIn(now, r.quiet()) // catchUp is due then, should no ACCEPT follow
	m.LeaseSeq = r.grantSeq(now)
	return r.accepts.New(m)
}

// fanOut sends m to every follower the stream reaches (reach), in ascending
// id order. a is m's ACCEPT, when it is one: it asks the followers it names
// (all when it names nobody) and tells each one reached its commit index.
func (r *Node) fanOut(m node.Message, a *AcceptMsg) {
	now := r.env.Now()
	for f := range r.peers {
		ask := a != nil && (a.Repliers == 0 || a.Repliers>>uint(f)&1 != 0)
		if r.reach(node.ID(f), now, ask) {
			if a != nil {
				r.peers[f].told = a.CommitUpTo // never below what f was told: firstGap only grows
			}
			r.env.Send(node.ID(f), m)
		}
	}
}

// reach reports whether the stream goes to follower f now, noting an ask —
// a message asking f to answer. A follower is silent once it has left an ask
// unanswered for a retryTimeout (not once it has said nothing for as long:
// at a quorum of two the unnamed follower is asked once a retryTimeout). It
// is then reached once a retryTimeout, by the message that would have gone
// to it anyway — the probe — until anything it sends is delivered here, its
// detector's messages included (Deliver).
func (r *Node) reach(f node.ID, now sim.Time, ask bool) bool {
	p := &r.peers[f]
	silent := p.waiting != 0 && now.Sub(p.waiting) >= retryTimeout
	if f == r.me || silent && now.Sub(p.asked) < retryTimeout {
		return false
	}
	if ask || silent {
		p.asked = now
	}
	if ask && p.waiting == 0 {
		p.waiting = now
	}
	return true
}
