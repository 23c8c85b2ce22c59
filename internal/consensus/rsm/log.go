package rsm

import (
	"slices"

	"repro/internal/consensus"
	"repro/internal/node"
	"repro/internal/sim"
)

// This file is the storage layer: the instance window — one slot per log
// instance not yet applied, holding the decided value or the acceptor's
// vote (the leader's round state is the pipeline's) — and the horizon below
// which every replica has applied (follower.done). The applied prefix is
// the Recorder's (decision).

// decidedB is a decided slot's ballot: no ballot a process makes reaches
// it, and onPrepare and onAccept drop a message at it, which no acceptor
// may promise or vote at.
const decidedB = ^consensus.Ballot(0)

// slot is what this replica holds about one log instance, 24 bytes; zero is
// a hole. v is the decision when b is decidedB, else the value this acceptor
// voted for at ballot b (NoBallot: no vote).
type slot struct {
	v consensus.Value
	b consensus.Ballot
}

func (s *slot) decided() bool { return s.b == decidedB }

// logbook is one replica's instance window: slots[i] is instance base+i,
// so every per-instance lookup is an index, walks are in instance order,
// and a hole costs one zero slot. It holds the instances from live ≥ base
// up, the slots below zero until the window slides over them (release).
// low ≤ live is the forgetting horizon — below it every process has
// applied — and firstGap ≥ live bounds the contiguous decided prefix.
type logbook struct {
	slots          []slot
	base, live     int
	low, firstGap  int
	highestDecided int
	decided        int // decided instances from low up, held or released: the bounded-memory metric
	voted          int // undecided slots holding a vote
}

// at returns the slot of inst, or nil outside the window. The pointer is
// good until the window next grows or releases.
func (l *logbook) at(inst int) *slot {
	if inst >= l.live && inst < l.end() {
		return &l.slots[inst-l.base]
	}
	return nil
}

// maxHole is how far past its first gap the window will hold a slot:
// instance numbers come off the wire, and a wild one must not size it.
const maxHole = 1 << 16

// reaches reports whether the window may grow to hold inst; what it does
// not reach casts no vote here and installs nothing.
func (l *logbook) reaches(inst int) bool { return inst-l.firstGap < maxHole }

// ensure returns the slot of inst ≥ live, growing the window over it.
func (l *logbook) ensure(inst int) *slot {
	for inst >= l.end() {
		l.slots = append(l.slots, slot{})
	}
	return &l.slots[inst-l.base]
}

// end is one past the highest instance the window has a slot for.
func (l *logbook) end() int { return l.base + len(l.slots) }

func (l *logbook) get(inst int) (consensus.Value, bool) {
	if s := l.at(inst); s != nil && s.decided() {
		return s.v, true
	}
	return consensus.NoValue, false
}

// accept records a vote for v at ballot b in an instance ≥ live, unless it
// is decided: the slot's value is the decision then, whatever the ballot.
func (l *logbook) accept(inst int, b consensus.Ballot, v consensus.Value) {
	s := l.ensure(inst)
	if s.decided() || b == decidedB {
		return
	}
	if s.b == consensus.NoBallot {
		l.voted++
	}
	s.b, s.v = b, v
}

// insert stores a decision if the instance is new, advances the gap, and
// reports whether anything was installed.
func (l *logbook) insert(inst int, v consensus.Value) bool {
	if inst < l.live || !l.reaches(inst) {
		return false // decided and applied, or wild
	}
	s := l.ensure(inst)
	if s.decided() {
		return false
	}
	if s.b != consensus.NoBallot {
		l.voted--
	}
	s.v, s.b = v, decidedB
	l.decided++
	l.highestDecided = max(l.highestDecided, inst)
	for s := l.at(l.firstGap); s != nil && s.decided(); s = l.at(l.firstGap) {
		l.firstGap++
	}
	return true
}

// release clears the slots below to, capped at firstGap, and once they are
// as many as the live ones slides the live window to the front of the
// array: the array is reused, never regrown for room its front already
// has, and a slot is copied at most once for each one released.
func (l *logbook) release(to int) {
	if to = min(to, l.firstGap); to <= l.live {
		return
	}
	clear(l.slots[l.live-l.base : to-l.base])
	l.live = to
	if dead := l.live - l.base; 2*dead >= len(l.slots) {
		n := copy(l.slots, l.slots[dead:])
		clear(l.slots[n:])
		l.slots, l.base = l.slots[:n], l.live
	}
}

// forgetBelow moves the horizon up to h, capped at firstGap. It frees
// nothing: the applier released every slot below firstGap as it passed
// them (apply), and the Recorder keeps what lies below.
func (l *logbook) forgetBelow(h int) {
	if h = min(h, l.firstGap); h > l.low {
		l.decided -= h - l.low
		l.low = h
	}
}

// acceptor is the synod acceptor state that is not per instance: the
// highest promised ballot and the commit index. The votes themselves live
// in the window.
type acceptor struct {
	promised consensus.Ballot
	// lastAcceptAt is when this acceptor last took a phase-2 message;
	// votes that have gone quiet for a retryTimeout make fillGaps ask (the
	// commit that should have closed them was lost with its leader).
	lastAcceptAt sim.Time
	// commitB and commitUpTo are the highest commit index heard, on an
	// ACCEPT or a value-free DECIDE: the leader of commitB had decided
	// everything below commitUpTo. Every slot below it voted at commitB is
	// decided — when the index arrives (onCommit) or when a late ACCEPT
	// does (onAccept) — so reordering between the two is harmless. A
	// higher ballot's index replaces the pair even when it is lower.
	// Neither is durable: a restarted replica waits for the next one.
	commitB    consensus.Ballot
	commitUpTo int
	// stuckGap and stuckSince debounce gap filling: the firstGap at which
	// this replica was first seen behind (-1: it is not) and when. askedAt
	// is when it last sent a LEARN.
	stuckGap   int
	stuckSince sim.Time
	askedAt    sim.Time
	// ripe are the votes of the open turn that decide their instance,
	// learned once the turn's flush has made them durable (decideRipe).
	ripe []ripeVote
}

// ripeVote is a vote at b in inst that decides it (pairDecides).
type ripeVote struct {
	inst int
	b    consensus.Ballot
}

// onCommit folds a commit index heard from the leader of ballot b into
// the acceptor and decides, from this replica's own votes, what the index
// newly covers. Soundness: a ballot binds one value per instance, and the
// leader of b only announces a prefix in which every instance it proposed
// at b was decided with that value (see learn), so a slot voted at b below
// the index holds the decision. A slot voted at any other ballot proves
// nothing and stays open until repaired by value.
func (r *Node) onCommit(b consensus.Ballot, upTo int) {
	from := r.log.firstGap
	switch {
	case b > r.acc.commitB:
		r.acc.commitB = b
	case b == r.acc.commitB && upTo > r.acc.commitUpTo:
		from = max(from, r.acc.commitUpTo) // below it, already decided on arrival
	default:
		return // overtaken by a later index, or a deposed leader's
	}
	r.acc.commitUpTo = upTo
	for inst := from; inst < upTo && inst < r.log.end(); inst++ {
		// nil: learn let the window release past inst. A decided slot
		// holds no vote at b, so this skips it too.
		if s := r.log.at(inst); s != nil && s.b == b {
			r.learn(inst, s.v)
		}
	}
}

// observe records that process id has applied through count (follower.done).
func (r *Node) observe(id node.ID, count int) {
	if uint(id) < uint(len(r.peers)) {
		r.peers[id].done = max(r.peers[id].done, count)
	}
}

// minDone returns the forgetting horizon, the least done (follower).
func (r *Node) minDone() int {
	return slices.MinFunc(r.peers, func(a, b follower) int { return a.done - b.done }).done
}

// learn installs a decision locally and lets the applier run the newly
// contiguous prefix; it reports whether the decision was news.
func (r *Node) learn(inst int, v consensus.Value) bool {
	if !r.log.insert(inst, v) {
		return false
	}
	r.cfg.Store.Decide(uint64(inst), string(v))
	if fl := r.pipe.at(inst); fl != nil && fl.open {
		fl.open = false // decided, by our quorum or someone else's
		r.pipe.open--
		if r.prop.prepared && fl.v != v {
			// Someone else's, with another value than we proposed at our
			// ballot: a higher ballot has completed phase 1, ours can win
			// no further quorum, and a commit index at it covering inst
			// would have our voters decide the losing value. Step down
			// before anything else is announced; the next drive tick
			// re-prepares if Omega still nominates us.
			r.abdicateLeader()
		}
	}
	r.pipe.nextInst = max(r.pipe.nextInst, inst+1)
	r.apply()
	return true
}

// decision returns inst's decided value, if this replica serves it: applied
// and not below the horizon, from the Recorder; from live up, from the
// window, which takes no lock.
func (r *Node) decision(inst int) (consensus.Value, bool) {
	if inst >= r.log.low && inst < r.log.live {
		return r.rec.Value(inst)
	}
	return r.log.get(inst)
}

// onLearn serves a lagging follower's gap-fill request and records its
// advertised progress (observe).
func (r *Node) onLearn(from node.ID, m LearnMsg) {
	r.observe(from, m.FirstGap)
	sent := 0
	for inst := max(m.FirstGap, r.log.low); inst <= r.log.highestDecided && sent < learnBatch; inst++ {
		if v, ok := r.decision(inst); ok {
			r.env.Send(from, r.decides.New(DecideMsg{Inst: inst, V: v}))
			sent++
		}
	}
}
