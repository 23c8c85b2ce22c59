package rsm

import (
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/node"
	"repro/internal/sim"
)

// This file is the lease layer: leader read leases that make queries free
// in steady state. The prepared leader numbers lease grants with a
// monotonically increasing sequence and piggybacks the current grant on
// every ACCEPT it already broadcasts; the followers asked to reply
// piggyback the ack on their ACCEPTED, so while commands flow the lease
// costs zero extra messages. Only when phase-2 traffic idles does the leader
// fall back to an explicit LeaseGrantMsg/LeaseAckMsg pair per refresh
// interval (Config.Lease/4).
//
// A follower that honors grant seq at ballot b promises: "until
// Config.Lease after I received this grant (my clock), I will not
// promise any ballot owned by a process other than b's owner". It
// enforces the promise by deferring PREPAREs from other would-be leaders
// — no answer while the grant stands, the highest one answered when it
// has run out — and by holding off its own phase 1 until that instant.
//
// The leader counts grant seq acked by follower f as valid until
// issued(seq) + Config.Lease − Lease/10 on its own clock, where
// issued(seq) is when it FIRST sent that grant. It holds the lease while
// a majority (its own vote included) of grants are valid. Safety needs
// only a bound on clock *rate* divergence over one lease interval, not
// synchronized clocks: the follower's window starts at receipt, which is
// at or after first-send in real time, so the leader's window starts no
// later than the follower's; the Lease/10 margin then covers the
// follower's clock gaining up to Lease/10 on the leader's over one
// Lease. Under that assumption, while the leader's conservative window
// holds, every quorum of any competing prepare intersects a follower
// still inside its deferral window, so no other ballot can complete
// phase 1 — and nothing can be decided this replica's applied prefix
// would miss. Serving a read at the leader's applied index while the
// lease holds is therefore linearizable (see read.go for the fallback
// when it does not hold).
//
// A lease holder that learns of a higher ballot (PREPARE or NACK) drops
// its lease state along with leadership before acknowledging the ballot,
// so it can never serve a local read after helping a competitor — the
// lease breaks early, never stale.

// leaseState holds both sides of the lease protocol for one replica.
type leaseState struct {
	// Leader side.
	seq      uint64              // current grant sequence number
	issued   map[uint64]sim.Time // grant seq → first-send time
	granted  []sim.Time          // per follower: conservative grant expiry
	lastSent sim.Time            // when a grant last rode out (any carrier)

	// Follower side.
	holder     node.ID          // owner of the last honored grant
	blockUntil sim.Time         // defer foreign prepares until then
	deferred   consensus.Ballot // the highest PREPARE deferred, answered then

	// restartHold covers the blind spot after crash-recovery: grant
	// state lived only in RAM, so a restarted replica cannot know
	// whether its previous incarnation granted (or held) a lease that
	// is still running. Until this instant — recovery time + Lease —
	// it defers every prepare, its own included, and serves no local
	// reads. Conservative and bounded, so liveness is only delayed.
	restartHold sim.Time

	// heldUntil mirrors the leader-side quorum expiry (unix-ish env
	// nanos) for observers outside the node loop; 0 when not held.
	heldUntil atomic.Int64
	// localReads / fallbackReads count individual reads served from the
	// lease vs through the no-op barrier (telemetry).
	localReads    atomic.Uint64
	fallbackReads atomic.Uint64
}

// leaseRefresh is the grant rollover period: a fresh grant sequence is
// issued every quarter lease, so the quorum expiry is re-extended three
// times before it can lapse under healthy links.
func (r *Node) leaseRefresh() time.Duration {
	return max(r.cfg.Lease/4, r.cfg.DriveInterval)
}

// grantSeq returns the lease grant to piggyback on an outgoing ACCEPT,
// rolling the sequence forward once per refresh interval. Zero when
// leases are disabled.
func (r *Node) grantSeq(now sim.Time) uint64 {
	if r.cfg.Lease <= 0 {
		return 0
	}
	if r.lease.seq == 0 || now.Sub(r.lease.issued[r.lease.seq]) >= r.leaseRefresh() {
		r.lease.seq++
		r.lease.issued[r.lease.seq] = now
		// Prune grants too old to extend any expiry.
		for s, t := range r.lease.issued {
			if now.Sub(t) > r.cfg.Lease {
				delete(r.lease.issued, s)
			}
		}
	}
	r.lease.lastSent = now
	return r.lease.seq
}

// refreshLease keeps grants flowing when no ACCEPT traffic carries them:
// the drive tick broadcasts an explicit grant once per refresh interval.
func (r *Node) refreshLease(now sim.Time) {
	if r.cfg.Lease <= 0 || !r.prop.prepared {
		return
	}
	if now.Sub(r.lease.lastSent) < r.leaseRefresh() {
		return
	}
	r.env.Broadcast(LeaseGrantMsg{B: r.prop.ballot, Seq: r.grantSeq(now)})
}

// noteGrant is the follower side: honor a grant carried by an ACCEPT or
// a LeaseGrantMsg whose ballot this acceptor has (just) promised.
// Returns the sequence to ack, or zero when the grant is not honored.
func (r *Node) noteGrant(b consensus.Ballot, seq uint64, now sim.Time) uint64 {
	if r.cfg.Lease <= 0 || seq == 0 || b < r.acc.promised {
		return 0
	}
	r.lease.holder = b.Owner(r.n)
	r.lease.blockUntil = max(r.lease.blockUntil, now.Add(r.cfg.Lease))
	return seq
}

// onLeaseGrant handles an explicit idle-path grant.
func (r *Node) onLeaseGrant(from node.ID, m LeaseGrantMsg) {
	if seq := r.noteGrant(m.B, m.Seq, r.env.Now()); seq != 0 {
		r.env.Send(from, LeaseAckMsg{B: m.B, Seq: seq})
	}
}

// onLeaseAck is the leader side: follower from has honored grant seq.
// The grant is valid until first-send + Lease − Lease/10; the quorum
// expiry is the Majority-th largest per-follower expiry (own vote
// included).
func (r *Node) onLeaseAck(from node.ID, b consensus.Ballot, seq uint64) {
	if r.cfg.Lease <= 0 || seq == 0 || !r.prop.prepared || b != r.prop.ballot {
		return
	}
	issued, ok := r.lease.issued[seq]
	if !ok {
		return // too old: conservatively worthless
	}
	until := issued.Add(r.cfg.Lease - r.cfg.Lease/10)
	r.lease.granted[from] = max(r.lease.granted[from], until)
	// Recompute the quorum expiry: with our own vote, we need
	// Majority-1 unexpired follower grants.
	if exp, ok := r.nthGrant(consensus.Majority(r.n) - 1); ok {
		r.lease.heldUntil.Store(int64(exp))
	}
}

// nthGrant picks the need-th largest of the followers' grant expiries in
// place — this runs on every lease-carrying ACCEPTED, and n is a handful,
// so a rank count beats sorting a copy. A grant's rank is how many others
// outlast it, ties broken by id so that ranks are distinct.
func (r *Node) nthGrant(need int) (sim.Time, bool) {
	for f, t := range r.lease.granted {
		if node.ID(f) == r.me || t == 0 {
			continue
		}
		rank := 0
		for g, u := range r.lease.granted {
			if node.ID(g) != r.me && (u > t || (u == t && g < f)) {
				rank++
			}
		}
		if rank == need-1 {
			return t, true
		}
	}
	return 0, false // fewer than need followers have granted
}

// holdsLease reports whether local reads are safe right now: prepared,
// still nominated by Omega, a quorum of grants unexpired, nothing left to
// learn below the floor or to decide of what phase 1 re-proposed (the
// grants ride those very ACCEPTs, and the links are not FIFO), and no
// post-restart blind spot in effect.
func (r *Node) holdsLease(now sim.Time) bool {
	return r.cfg.Lease > 0 && r.prop.prepared && r.omega.Leader() == r.me &&
		r.log.firstGap >= max(r.prop.floor, r.prop.reopenedEnd) &&
		!r.lease.restartHold.After(now) &&
		sim.Time(r.lease.heldUntil.Load()).After(now)
}

// leaseWait reports how long a standing grant still forbids this replica
// to act for a ballot of owner's — to promise it or, owner being this
// replica, to open it; zero when nothing stands in the way.
func (r *Node) leaseWait(owner node.ID, now sim.Time) time.Duration {
	if r.cfg.Lease <= 0 {
		return 0
	}
	if hold := r.lease.restartHold.Sub(now); hold > 0 {
		return hold // pre-crash grants are unknown: wait out a full Lease
	}
	if r.lease.holder == owner {
		return 0
	}
	return max(r.lease.blockUntil.Sub(now), 0)
}

// driveIn brings the next drive forward to wait from now — the instant a
// grant runs out, or the stream counts as idle (catchUp) — when the drive
// pending is later than that. It never puts one off: under load every
// ACCEPT asks, and a drive that each of them pushed back would never run.
func (r *Node) driveIn(now sim.Time, wait time.Duration) {
	if now.Add(wait).Before(r.driveAt) {
		r.armDrive(now, wait)
	}
}

// armDrive sets the one drive timer, replacing the drive pending.
func (r *Node) armDrive(now sim.Time, wait time.Duration) {
	r.driveAt = now.Add(wait)
	r.env.SetTimer(timerDrive, wait)
}

// answerDeferred hands onPrepare the PREPARE it made this acceptor sit on:
// promised if the grant has run out, deferred again if it still stands.
func (r *Node) answerDeferred() {
	if b := r.lease.deferred; b != consensus.NoBallot {
		r.lease.deferred = consensus.NoBallot
		r.onPrepare(b.Owner(r.n), PrepareMsg{B: b})
	}
}

// abdicateLeader drops leader duties and every lease- and read-serving
// right that came with them; the next drive tick re-prepares if Omega
// still nominates this process. Commands riding in this leader's
// instances go back to the queue, to be forwarded or proposed again.
// Reads are dropped, those waiting on the barrier and those the open turn
// has noted but not yet served (clients retry against the new leader);
// the gauge clears before any competing ballot gets our promise.
func (r *Node) abdicateLeader() {
	if r.prop.prepared || r.prop.preparing {
		// Only an actual demotion is an election transition worth a span;
		// the follower housekeeping path calls this every tick.
		r.cfg.Tracer.Mark(r.env.Now(), "abdicate", -1)
	}
	r.prop.prepared, r.prop.preparing = false, false
	clear(r.pipe.told)
	clear(r.pipe.owed)
	r.pipe.named = 0
	r.bat.unassign()
	r.lease.heldUntil.Store(0)
	clear(r.lease.granted)
	r.lease.seq = 0
	clear(r.lease.issued)
	r.reads.waiting = r.reads.waiting[:0]
	r.reads.barrier, r.reads.barrierOwn = -1, false
}

// LeaseHeld reports whether this replica currently holds a quorum read
// lease. Safe from any goroutine on live transports; in the simulator
// call it only while the world is paused.
func (r *Node) LeaseHeld() bool {
	if r.env == nil {
		return false
	}
	return sim.Time(r.lease.heldUntil.Load()).After(r.env.Now())
}

// LocalReads returns how many reads this replica served from its lease.
// Safe from any goroutine.
func (r *Node) LocalReads() uint64 { return r.lease.localReads.Load() }

// FallbackReads returns how many reads this replica served through the
// phase-2 no-op barrier. Safe from any goroutine.
func (r *Node) FallbackReads() uint64 { return r.lease.fallbackReads.Load() }
