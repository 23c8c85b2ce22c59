package rsm

import (
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/node"
	"repro/internal/sim"
)

// This file is the lease layer: numbered grants that a majority acks. The
// leader keeps one quantity per follower, the highest grant it has acked,
// and the grant a majority (its own vote included) has acked, quorumSeq,
// serves two ends: it confirms the reads noted before it was issued
// (read.go), and with Config.Lease set it dates a lease that makes reads
// free in steady state. The leader piggybacks its current grant on every
// ACCEPT it already sends and the followers asked to reply ack it on
// their ACCEPTED, so while commands flow the lease costs zero extra
// messages; only when phase-2 traffic idles does the leader fall back to
// an explicit LeaseGrantMsg/LeaseAckMsg pair per refresh interval
// (Config.Lease/4). Without a lease the explicit grants are read rounds.
//
// An acceptor promised above a grant's ballot NACKs it. With leases on, a
// follower that acks grant seq at ballot b also promises: "until
// Config.Lease after I received this grant (my clock), I will not
// promise any ballot owned by a process other than b's owner". It
// enforces the promise by deferring PREPAREs from other would-be leaders
// — no answer while the grant stands, the highest one answered when it
// has run out — and by holding off its own phase 1 until that instant.
//
// The leader holds the lease until issued(quorumSeq) + Config.Lease −
// Lease/10 on its own clock, issued(seq) being when it FIRST sent that
// grant. Safety needs only a bound on clock *rate* divergence over one
// lease interval, not synchronized clocks: the follower's window starts at
// receipt, which is at or after first-send in real time, so the leader's
// window starts no later than the follower's; the Lease/10 margin then
// covers the follower's clock gaining up to Lease/10 on the leader's over
// one Lease. Under that assumption, while the leader's conservative window
// holds, every quorum of any competing prepare intersects a follower
// still inside its deferral window, so no other ballot can complete
// phase 1 — and nothing can be decided this replica's applied prefix
// would miss. Serving a read at the leader's applied index while the
// lease holds is therefore linearizable (read.go: a round when it does not).
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
	acked    []uint64            // per process: the highest grant acked (own vote: the current one)
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
	// lease vs confirmed by a majority's acks of a later grant (telemetry).
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
		r.nextGrant(now)
	}
	r.lease.lastSent = now
	return r.lease.seq
}

// nextGrant issues the next grant sequence number, first sent now. This
// node's own vote acks it at once.
func (r *Node) nextGrant(now sim.Time) uint64 {
	r.lease.seq++
	r.lease.issued[r.lease.seq] = now
	r.lease.acked[r.me] = r.lease.seq
	// Prune grants too old to extend any expiry.
	for s, t := range r.lease.issued {
		if now.Sub(t) > r.cfg.Lease {
			delete(r.lease.issued, s)
		}
	}
	return r.lease.seq
}

// refreshLease keeps grants flowing when no ACCEPT traffic carries them:
// the drive tick sends an explicit grant once per refresh interval.
func (r *Node) refreshLease(now sim.Time) {
	if r.cfg.Lease <= 0 || !r.prop.prepared || now.Sub(r.lease.lastSent) < r.leaseRefresh() {
		return
	}
	r.fanOut(LeaseGrantMsg{B: r.prop.ballot, Seq: r.grantSeq(now)}, nil)
}

// noteGrant is the follower side of a grant at or above this acceptor's
// promise, which it acks: with leases on, the ack promises the window.
func (r *Node) noteGrant(b consensus.Ballot, seq uint64, now sim.Time) {
	if r.cfg.Lease > 0 && seq != 0 {
		r.lease.holder = b.Owner(r.n)
		r.lease.blockUntil = max(r.lease.blockUntil, now.Add(r.cfg.Lease))
	}
}

// onLeaseGrant acks an explicit grant, or NACKs it as it would the ACCEPT
// of a ballot below its promise.
func (r *Node) onLeaseGrant(from node.ID, m LeaseGrantMsg) {
	if m.B < r.acc.promised {
		r.env.Send(from, NackMsg{B: m.B, Promised: r.acc.promised})
		return
	}
	r.noteGrant(m.B, m.Seq, r.env.Now())
	r.env.Send(from, LeaseAckMsg{B: m.B, Seq: m.Seq})
}

// onLeaseAck is the leader side: follower from has acked grant seq, and
// the grant a majority has acked may date the lease anew.
func (r *Node) onLeaseAck(from node.ID, b consensus.Ballot, seq uint64) {
	if !r.prop.prepared || b != r.prop.ballot || seq <= r.lease.acked[from] || seq > r.lease.seq {
		return
	}
	r.lease.acked[from] = seq
	if issued, ok := r.lease.issued[r.quorumSeq()]; ok && r.cfg.Lease > 0 {
		r.lease.heldUntil.Store(int64(issued.Add(r.cfg.Lease - r.cfg.Lease/10)))
	} // a grant pruned as too old has run out: worthless
}

// quorumSeq returns the highest grant a majority, own vote included, has
// acked. It runs on every lease-carrying ACCEPTED, and n is a handful: a
// count per candidate beats sorting a copy.
func (r *Node) quorumSeq() (q uint64) {
	for _, s := range r.lease.acked {
		if s <= q {
			continue
		}
		k := 0
		for _, u := range r.lease.acked {
			if u >= s {
				k++
			}
		}
		if k >= consensus.Majority(r.n) {
			q = s
		}
	}
	return q
}

// holdsLease reports whether local reads are safe right now for a leader
// ready to answer any (read.go): still nominated by Omega, a quorum of
// grants unexpired, and no post-restart blind spot in effect.
func (r *Node) holdsLease(now sim.Time) bool {
	return r.cfg.Lease > 0 && r.omega.Leader() == r.me &&
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
// Reads are dropped, those waiting on a round and those the open turn has
// noted but not yet served (clients retry against the new leader); the
// gauge clears before any competing ballot gets our promise.
func (r *Node) abdicateLeader() {
	if r.prop.prepared || r.prop.preparing {
		// Only an actual demotion is an election transition worth a span;
		// the follower housekeeping path calls this every tick.
		r.cfg.Tracer.Mark(r.env.Now(), "abdicate", -1)
	}
	r.prop.prepared, r.prop.preparing = false, false
	clear(r.pipe.peers)
	r.pipe.named = 0
	r.bat.unassign()
	r.lease.heldUntil.Store(0)
	clear(r.lease.acked)
	r.lease.seq = 0
	clear(r.lease.issued)
	r.reads.waiting = r.reads.waiting[:0]
	r.reads.round = 0
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

// FallbackReads returns how many reads this replica served without its
// lease, each confirmed by a majority's acks of a grant issued after it
// arrived (read.go). Safe from any goroutine.
func (r *Node) FallbackReads() uint64 { return r.lease.fallbackReads.Load() }
