package rsm

import (
	"sort"
	"time"

	"repro/internal/consensus"
	"repro/internal/node"
	"repro/internal/sim"
)

// This file is the proposer layer: ballot arithmetic and the one-time
// phase 1 that establishes a stable ballot covering every log instance.
// Once prepared, the leader never runs phase 1 again while its ballot
// stands — each command (batch) costs only phase-2 traffic.

// proposer is the leader-side ballot state.
type proposer struct {
	ballot      consensus.Ballot
	prepared    bool
	preparing   bool
	prepStarted sim.Time
	// prepTimeout is how long the open PREPARE may go unanswered:
	// retryTimeout, doubling across consecutive failures of one candidacy
	// only — a ballot that stood, or an abdication, ends it.
	prepTimeout time.Duration
	promises    map[node.ID]PromiseMsg
	// floor is the highest decided prefix a promiser has reported, floorAt
	// who to ask for it: below it everything is decided somewhere, so this
	// replica proposes nothing there, ever, and learns by value (learnFloor).
	floor   int
	floorAt node.ID
	// reopenedEnd is one past what this ballot re-proposed or filled when it
	// stood: undecided here, any of it may be decided and acknowledged elsewhere.
	reopenedEnd int
}

// startPrepare opens (or re-opens) the stable ballot.
func (r *Node) startPrepare() {
	r.prop.ballot = max(r.acc.promised, r.prop.ballot).Next(r.me, r.n)
	if !r.prop.preparing {
		r.prop.prepTimeout = retryTimeout
	} else if r.prop.prepTimeout < maxRetryTimeout {
		r.prop.prepTimeout *= 2
	}
	r.prop.preparing = true
	r.prop.prepStarted = r.env.Now()
	r.prop.promises = make(map[node.ID]PromiseMsg, r.n)
	r.acc.promised = r.prop.ballot
	// Durable before visible: the ballot (so a restart outbids it, never
	// reattaching a new value to it) and the self-promise must hit the
	// store before the PREPARE leaves this node.
	r.cfg.Store.Ballot(uint64(r.prop.ballot))
	r.cfg.Store.Promise(uint64(r.prop.ballot))
	r.persisted()
	r.prop.promises[r.me] = PromiseMsg{B: r.prop.ballot, Entries: r.promiseEntries()}
	r.cfg.Tracer.Mark(r.prop.prepStarted, "prepare", -1)
	r.env.Logf("rsm: preparing ballot %v", r.prop.ballot)
	r.env.Broadcast(PrepareMsg{B: r.prop.ballot})
	r.maybeFinishPrepare()
}

// promiseEntries is what this acceptor reports of every instance a preparer
// may propose in: its decided prefix, and above it each instance it has
// voted in or — a decided slot keeps no ballot — decided.
func (r *Node) promiseEntries() []PromEntry {
	out := []PromEntry{{Inst: r.log.firstGap}}
	for inst := r.log.firstGap; inst < r.log.end(); inst++ {
		if s := r.log.at(inst); s.b != consensus.NoBallot {
			e := PromEntry{Inst: inst, AccB: s.b, AccV: s.v}
			if s.decided() {
				e.AccB = consensus.NoBallot
			}
			out = append(out, e)
		}
	}
	return out
}

func (r *Node) onPrepare(from node.ID, m PrepareMsg) {
	if m.B == decidedB {
		return // no vote can be held at it
	}
	now := r.env.Now()
	if wait := r.leaseWait(m.B.Owner(r.n), now); wait > 0 {
		// A standing lease grant forbids promising this ballot — this is
		// what makes the lease holder's local reads safe across leader
		// changes. The PREPARE waits for the grant to run out (drive,
		// answerDeferred): grants end a link delay apart, and a successor
		// that prepares as its own ends would otherwise sit out a retry.
		r.lease.deferred = max(r.lease.deferred, m.B)
		r.driveIn(now, wait)
		return
	}
	// ≥, not >: the links are not FIFO, so an ACCEPT at m.B may have
	// overtaken this PREPARE and raised the promise to m.B already (its
	// record is durable and implies the promise). That is no rejection.
	if m.B >= r.acc.promised {
		if m.B > r.acc.promised {
			r.acc.promised = m.B
			// Durable before visible: once the PROMISE is out, this acceptor
			// may never again vote below m.B — not even after kill -9.
			r.cfg.Store.Promise(uint64(m.B))
			r.persisted()
		}
		if m.B > r.prop.ballot {
			// A higher ballot exists: abdicate leader duties (and any
			// read lease that came with them) before promising.
			r.abdicateLeader()
		}
		r.env.Send(from, PromiseMsg{B: m.B, Entries: r.promiseEntries()})
	} else {
		r.env.Send(from, NackMsg{B: m.B, Promised: r.acc.promised})
	}
}

func (r *Node) onPromise(from node.ID, m PromiseMsg) {
	if m.B != r.prop.ballot || !(r.prop.preparing || r.prop.prepared) {
		return // not this ballot's, or abdicated since
	}
	for _, e := range m.Entries {
		if !r.log.reaches(e.Inst) {
			// A vote this ballot can neither re-propose nor ignore, or a decided
			// prefix its window cannot reach: the promise does not count, and
			// nothing is sized by it. The promiser's decisions bring up a laggard.
			r.env.Send(from, LearnMsg{FirstGap: r.log.firstGap})
			return
		}
	}
	for i, e := range m.Entries {
		if e.AccB != consensus.NoBallot {
			continue // a vote, weighed when the quorum is in
		}
		if i > 0 {
			r.learn(e.Inst, e.AccV)
			continue
		}
		r.observe(from, e.Inst)
		if e.Inst > r.prop.floor {
			r.prop.floor, r.prop.floorAt, r.acc.stuckGap = e.Inst, from, -1
		}
	}
	if r.prop.preparing { // one that comes after the quorum still says how far its sender is
		r.prop.promises[from] = m
		r.maybeFinishPrepare()
	}
}

// maybeFinishPrepare completes phase 1 once a majority has promised:
// adopt the highest accepted value per instance across the quorum,
// re-propose those instances at the new ballot, and close unconstrained
// gaps with no-ops so the decided prefix can grow — all of it from the
// floor up. A promiser that has decided an instance reports no vote in it,
// and it may be the only member of the quorum that cast one: below the
// floor "nothing reported" does not mean free, and a lower-ballot vote
// somebody else reports there is not the decision. Those are asked for.
func (r *Node) maybeFinishPrepare() {
	if !r.prop.preparing || len(r.prop.promises) < consensus.Majority(r.n) {
		return
	}
	r.prop.preparing = false
	r.prop.prepared = true
	best := make(map[int]PromEntry)
	for _, p := range r.prop.promises {
		for _, e := range p.Entries {
			if cur, ok := best[e.Inst]; e.AccB != consensus.NoBallot && (!ok || e.AccB > cur.AccB) {
				best[e.Inst] = e
			}
		}
	}
	floor := max(r.log.firstGap, r.prop.floor)
	maxInst := max(r.log.highestDecided, floor-1)
	insts := make([]int, 0, len(best))
	for inst := range best {
		insts = append(insts, inst)
		maxInst = max(maxInst, inst)
	}
	sort.Ints(insts)
	r.pipe.nextInst = max(r.pipe.nextInst, maxInst+1)
	// Re-propose constrained instances at the new ballot. These bypass the
	// pipelining window: they block the decided prefix, so they must be
	// driven regardless of how much new work is in flight.
	for _, inst := range insts {
		if _, decided := r.log.get(inst); decided || inst < floor {
			continue
		}
		r.reopen(inst, best[inst].AccV)
	}
	// Close unconstrained gaps below nextInst with no-ops so the log's
	// decided prefix can grow.
	for inst := floor; inst < r.pipe.nextInst; inst++ {
		if _, decided := r.log.get(inst); decided {
			continue
		}
		if fl := r.pipe.at(inst); fl != nil && fl.open {
			continue // already re-proposed above
		}
		r.reopen(inst, consensus.Noop)
	}
	r.prop.reopenedEnd = r.pipe.nextInst
	r.cfg.Tracer.Mark(r.env.Now(), "prepared", -1)
	r.env.Logf("rsm: ballot %v prepared (%d constrained)", r.prop.ballot, len(insts))
	// A freshly prepared ballot may find commands already queued; with or
	// without them, every follower is owed this ballot's commit index.
	r.owe(false, nil)
	r.pumpDue, r.commitDue = true, true
	r.learnFloor(r.env.Now(), 0)
}

// passOn sends a decision this leader had to learn by value, below its floor,
// to the followers not known to hold it: no ACCEPT of this ballot carries it,
// and this ballot's commit index does not decide a vote cast at an older one.
func (r *Node) passOn(from node.ID, m DecideMsg) {
	for f, p := range r.peers {
		if id := node.ID(f); id != r.me && id != from && p.done <= m.Inst {
			r.env.Send(id, r.decides.New(m))
		}
	}
}

// learnFloor asks for the decisions below the floor by value, while any are
// missing and the last ask is at least wait old (drive: once an interval):
// whoever reported the floor first, then — each time an ask has left the
// first gap where it was — the next peer.
func (r *Node) learnFloor(now sim.Time, wait time.Duration) {
	gap := r.log.firstGap
	if gap >= r.prop.floor || now.Sub(r.acc.askedAt) < wait {
		return
	}
	if gap == r.acc.stuckGap {
		if r.prop.floorAt = (r.prop.floorAt + 1) % node.ID(r.n); r.prop.floorAt == r.me {
			r.prop.floorAt = (r.me + 1) % node.ID(r.n)
		}
	}
	r.acc.stuckGap, r.acc.askedAt = gap, now
	r.env.Send(r.prop.floorAt, LearnMsg{FirstGap: gap})
}

func (r *Node) onNack(m NackMsg) {
	if m.B != r.prop.ballot {
		return
	}
	r.acc.promised = max(r.acc.promised, m.Promised)
	// The next drive tick re-prepares with a higher ballot if Omega
	// still says we lead.
	r.abdicateLeader()
}
