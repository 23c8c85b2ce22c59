package rsm

import (
	"repro/internal/consensus"
	"repro/internal/node"
)

// Message kind tags. Under load a lease grant rides on ACCEPTs and its ack
// on ACCEPTEDs; the two lease kinds are the idle path and the read rounds
// (see lease.go, read.go).
const (
	KindRequest    = "RSM-REQ"      // command forwarding to the leader
	KindPrepare    = "RSM-PREPARE"  // the leader's one-time phase-1 broadcast
	KindPromise    = "RSM-PROMISE"  // phase-1 acknowledgements with accepted entries
	KindNack       = "RSM-NACK"     // ballot rejections
	KindAccept     = "RSM-ACCEPT"   // per-instance phase-2 proposals
	KindAccepted   = "RSM-ACCEPTED" // per-instance phase-2 acknowledgements
	KindDecide     = "RSM-DECIDE"   // commit index or by-value repair (see DecideMsg)
	KindLearn      = "RSM-LEARN"    // gap-fill requests from lagging followers
	KindLeaseGrant = "RSM-LEASE"    // explicit grants: idle lease refreshes and read rounds
	KindLeaseAck   = "RSM-LEASEACK" // acknowledgements of explicit grants
	KindReadReq    = "RSM-READ"     // linearizable read requests
	KindReadReply  = "RSM-READR"    // read answers
)

// RequestMsg forwards a client command to the leader, boxed from a node.Slab
// (a replica handles only the box). One delivered from the receiver itself
// is a client's Submit.
type RequestMsg struct{ V consensus.Value }

// PrepareMsg opens a stable ballot covering all instances.
type PrepareMsg struct{ B consensus.Ballot }

// PromEntry reports one instance in a promise. With AccB set it is the
// promiser's vote there. Under NoBallot it is a decision: a promise's first
// entry says that everything below Inst is decided at the promiser (its
// decided prefix; AccV is empty), any later one that Inst is, with AccV.
type PromEntry struct {
	Inst int
	AccB consensus.Ballot
	AccV consensus.Value
}

// PromiseMsg acknowledges a stable ballot and reports, for every instance
// the preparer may propose in, what the promiser has voted or decided.
type PromiseMsg struct {
	B       consensus.Ballot
	Entries []PromEntry
}

// NackMsg rejects ballot B in favor of Promised.
type NackMsg struct {
	B        consensus.Ballot
	Promised consensus.Ballot
}

// AcceptMsg proposes value V for log instance Inst at ballot B.
//
// CommitUpTo is the leader's decided prefix when the message left, set on
// every ACCEPT: every instance below it that the receiver has accepted at
// ballot B is decided with its accepted value (the commit index; see
// DecideMsg for the form it takes when no ACCEPT is leaving).
//
// MinDone piggybacks the cluster minimum of Done (follower): every
// process has applied the instances below it, so the receiver forgets
// them. Zero forgets nothing.
//
// LeaseSeq, when non-zero, piggybacks a read-lease grant (see lease.go):
// the receiver promises not to promise a ballot owned by anyone else for
// Config.Lease from receipt, and acks the grant on its ACCEPTED.
//
// Repliers, when non-zero, names the followers to answer, bit f for process
// f; the others vote, decide and honour the grant as ever, in silence.
type AcceptMsg struct {
	B          consensus.Ballot
	Inst       int
	V          consensus.Value
	CommitUpTo int
	MinDone    int
	LeaseSeq   uint64
	Repliers   uint64
}

// AcceptedMsg acknowledges acceptance of instance Inst at ballot B. Done
// advertises the sender's applied-through count (its first gap) — the
// sender's done in the leader's record of it (follower).
// LeaseSeq, when non-zero, acknowledges the lease grant of that sequence
// number (see lease.go).
type AcceptedMsg struct {
	B        consensus.Ballot
	Inst     int
	Done     int
	LeaseSeq uint64
}

// DecideMsg announces decisions, in one of two forms.
//
// With B set it is the leader's commit index, by reference and value-free:
// every instance below Inst that the receiver accepted at ballot B is
// decided with the value it accepted (the same statement an ACCEPT's
// CommitUpTo makes; V is empty). When its decided prefix advances and no
// ACCEPT leaves in the same turn, the leader of B sends it to the replicas
// whose commands were decided; to the others only if no ACCEPT follows.
//
// With B == NoBallot it is by value: instance Inst is decided with V. That
// form is the repair path only — the reply to a LEARN, and to an ACCEPT
// for an instance the acceptor already holds decided.
type DecideMsg struct {
	B    consensus.Ballot
	Inst int
	V    consensus.Value
}

// LearnMsg asks the receiver for decisions starting at FirstGap. It
// doubles as a Done-vector advertisement: the sender has applied
// everything below FirstGap.
type LearnMsg struct{ FirstGap int }

// LeaseGrantMsg is an explicit grant: it refreshes the leader's read lease
// when no ACCEPT traffic is flowing to carry one (see lease.go), and asks a
// majority to confirm the leadership for the reads waiting (a round, see
// read.go). B is the granting leader's stable ballot; Seq identifies the
// grant for acknowledgement. An acceptor promised above B NACKs it.
type LeaseGrantMsg struct {
	B   consensus.Ballot
	Seq uint64
}

// LeaseAckMsg acknowledges the explicit grant Seq at ballot B.
type LeaseAckMsg struct {
	B   consensus.Ballot
	Seq uint64
}

// ReadReqMsg asks the leader to position the Count reads numbered
// [Seq, Seq+Count) against the log (see read.go). Origin is the process
// the reply goes to; followers forward requests to the believed leader
// with Origin preserved, so one client hop reaches the serving replica. It
// is boxed as a REQ is.
type ReadReqMsg struct {
	Seq    uint64
	Count  uint32
	Origin node.ID
}

// ReadReplyMsg answers reads [Seq, Seq+Count): state that has applied
// Index commands reflects every write that completed before the reads
// were served. Local reports whether the leader served from its lease
// (zero consensus messages) or waited for a round: a majority's acks of a
// grant issued after the reads arrived (read.go).
//
// More, on the wire only, carries every further request of the same
// origin that the leader answered at the same instant with the same Index
// (read.go: appendSpan packs them, eachRead unpacks). It is a string so
// that the message stays a comparable value, empty in a reply to one
// request and in what the OnReadReply hook sees: the hook is called once
// per request, each time with that request's own Seq and Count.
type ReadReplyMsg struct {
	Seq   uint64
	Count uint32
	Index int
	Local bool
	More  string
}

// learnBatch bounds how many decisions a LearnMsg response carries.
const learnBatch = 64
