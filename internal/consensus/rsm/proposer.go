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
	// RetryTimeout, doubling across consecutive failures of one candidacy
	// only — a ballot that stood, or an abdication, ends it.
	prepTimeout time.Duration
	promises    map[node.ID]PromiseMsg
}

// startPrepare opens (or re-opens) the stable ballot.
func (r *Node) startPrepare() {
	base := r.acc.promised
	if r.prop.ballot > base {
		base = r.prop.ballot
	}
	r.prop.ballot = base.Next(r.me, r.n)
	if !r.prop.preparing {
		r.prop.prepTimeout = r.cfg.RetryTimeout
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
	r.prop.promises[r.me] = PromiseMsg{B: r.prop.ballot, Entries: r.undecidedAccepted()}
	r.cfg.Tracer.Mark(r.prop.prepStarted, "prepare", -1)
	r.env.Logf("rsm: preparing ballot %v", r.prop.ballot)
	r.env.Broadcast(PrepareMsg{B: r.prop.ballot})
	r.maybeFinishPrepare()
}

// undecidedAccepted lists this acceptor's accepted entries for instances
// not yet known decided.
func (r *Node) undecidedAccepted() []PromEntry {
	var out []PromEntry
	for inst := r.log.firstGap; inst < r.log.end(); inst++ {
		if s := r.log.at(inst); s.accB != consensus.NoBallot {
			out = append(out, PromEntry{Inst: inst, AccB: s.accB, AccV: s.v})
		}
	}
	return out
}

func (r *Node) onPrepare(from node.ID, m PrepareMsg) {
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
		r.env.Send(from, PromiseMsg{B: m.B, Entries: r.undecidedAccepted()})
	} else {
		r.env.Send(from, NackMsg{B: m.B, Promised: r.acc.promised})
	}
}

func (r *Node) onPromise(from node.ID, m PromiseMsg) {
	if !r.prop.preparing || m.B != r.prop.ballot {
		return
	}
	for _, e := range m.Entries {
		if !r.log.reaches(e.Inst) {
			// A vote this ballot can neither re-propose nor ignore: the promise
			// does not count. The promiser's decisions bring up a laggard.
			r.env.Send(from, LearnMsg{FirstGap: r.log.firstGap})
			return
		}
	}
	r.prop.promises[from] = m
	r.maybeFinishPrepare()
}

// maybeFinishPrepare completes phase 1 once a majority has promised:
// adopt the highest accepted value per instance across the quorum,
// re-propose those instances at the new ballot, and close unconstrained
// gaps with no-ops so the decided prefix can grow.
func (r *Node) maybeFinishPrepare() {
	if !r.prop.preparing || len(r.prop.promises) < consensus.Majority(r.n) {
		return
	}
	r.prop.preparing = false
	r.prop.prepared = true
	best := make(map[int]PromEntry)
	for _, p := range r.prop.promises {
		for _, e := range p.Entries {
			if cur, ok := best[e.Inst]; !ok || e.AccB > cur.AccB {
				best[e.Inst] = e
			}
		}
	}
	maxInst := r.log.highestDecided
	insts := make([]int, 0, len(best))
	for inst := range best {
		insts = append(insts, inst)
		if inst > maxInst {
			maxInst = inst
		}
	}
	sort.Ints(insts)
	if r.pipe.nextInst <= maxInst {
		r.pipe.nextInst = maxInst + 1
	}
	if r.pipe.nextInst < r.log.firstGap {
		r.pipe.nextInst = r.log.firstGap
	}
	// Re-propose constrained instances at the new ballot. These bypass the
	// pipelining window: they block the decided prefix, so they must be
	// driven regardless of how much new work is in flight.
	for _, inst := range insts {
		if _, decided := r.log.get(inst); decided || inst < r.log.low {
			continue
		}
		r.reopen(inst, best[inst].AccV)
	}
	// Close unconstrained gaps below nextInst with no-ops so the log's
	// decided prefix can grow.
	for inst := r.log.firstGap; inst < r.pipe.nextInst; inst++ {
		if _, decided := r.log.get(inst); decided {
			continue
		}
		if s := r.log.at(inst); s != nil && s.fl != nil && s.fl.open {
			continue // already re-proposed above
		}
		r.reopen(inst, consensus.Noop)
	}
	r.cfg.Tracer.Mark(r.env.Now(), "prepared", -1)
	r.env.Logf("rsm: ballot %v prepared (%d constrained)", r.prop.ballot, len(insts))
	// A freshly prepared ballot may find commands already queued; with or
	// without them, every follower is owed this ballot's commit index.
	r.owe(false, nil)
	r.pumpDue, r.commitDue = true, true
	r.openBarrier() // for the reads that arrived during phase 1
}

func (r *Node) onNack(m NackMsg) {
	if m.B != r.prop.ballot {
		return
	}
	if m.Promised > r.acc.promised {
		r.acc.promised = m.Promised
	}
	// The next drive tick re-prepares with a higher ballot if Omega
	// still says we lead.
	r.abdicateLeader()
}
