// Package rsm implements repeated consensus as a replicated log — the
// multi-decree (multi-Paxos) form of the synod protocol, which is where
// the paper's communication efficiency pays off at scale.
//
// The Omega-elected leader runs phase 1 **once**, establishing a stable
// ballot that covers every log instance; from then on each proposed value
// costs one phase-2 round-trip and crosses each link once, and decisions
// are announced by index, not by value (pipeline.go). Every message is
// initiated by the leader or addressed to it: followers forward commands
// to the leader, and ask it for decisions by value (LEARN) only when stuck
// behind the commit index for a whole drive interval, after loss or a
// restart. A change of Omega's output is acted on in the event that brings
// it (followOmega): the process named starts phase 1, the others
// re-forward what they have pending. Once the leader stabilizes, no other
// process initiates communication — the repeated-consensus analogue of the
// Omega algorithm's communication efficiency (E7, E12,
// TestSteadyStateMessageBudget).
//
// The engine is layered, one file per layer:
//
//	msgs.go     — the wire messages
//	log.go      — storage: the window of unapplied instances, the horizon
//	proposer.go — ballot management and the one-time phase 1
//	pipeline.go — windowed multi-instance phase 2 (Config.Window): flights
//	batch.go    — command ring, envelope codec, pump policy (Config.BatchMax)
//	applier.go  — in-order apply: one record per instance, the hooks per command
//	lease.go    — leader read leases piggybacked on phase 2 (Config.Lease)
//	read.go     — linearizable reads: lease-local or confirmed by a round of grants, one reply per origin
//	turn.go     — the end of a turn: one pump, one serve of its reads, one addressed announcement, one flush
//	rsm.go      — Node: composition, config, the follower record, and the automaton surface
//
// Batching packs many commands into one proposed value and pipelining
// overlaps many instances, so the per-instance cost is amortized over
// Window×BatchMax commands in flight. No handler pumps or announces: they
// mark what is due, and the end of the turn does each once (turn.go). A
// call from outside any turn is a turn of its own.
//
// The window holds only what is not yet applied (log.go); the Recorder
// serves the applied prefix to a replica that asks, down to the horizon:
// the least Done of all replicas (follower), which rides phase-2 traffic
// and so costs no message. A replica down or cut off pins the horizon, not
// the window.
//
// Safety is per-instance synod safety: an instance's value is chosen once
// a majority accepts it at some ballot, every later ballot's leader
// re-proposes the highest accepted value it finds in its promise quorum,
// and quorum intersection does the rest — provided a promise speaks for
// every instance: what the promiser has decided it reports as decided, and
// below the highest decided prefix reported a new leader proposes nothing
// and learns by value (proposer.go, DESIGN.md §14). Above it, leader changes
// re-propose in-flight instances and close gaps with no-op commands.
package rsm

import (
	"time"

	"repro/internal/consensus"
	"repro/internal/durable"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/tracing"
)

const timerDrive = "rsm/drive"

// Config parameterizes the engine. Zero values select defaults.
type Config struct {
	// DriveInterval is the leader/follower housekeeping period
	// (default 20ms). It also bounds how long a partial batch may wait
	// in the queue while the pipeline is busy. A leader change does not
	// wait for it: Omega's output is followed on the edge (followOmega).
	DriveInterval time.Duration
	// Window caps how many log instances the leader drives concurrently
	// (default 8; 1 disables pipelining).
	Window int
	// BatchMax caps how many queued commands one proposed value carries
	// (default 16; 1 disables batching).
	BatchMax int
	// Lease enables leader read leases of this duration (see lease.go):
	// grants piggyback on ACCEPTs, acks on ACCEPTEDs, and the leader
	// serves reads locally at its applied index while a quorum of
	// grants is unexpired. Off (zero) by default; every read then waits
	// for a round of explicit grants (read.go). Every process in a
	// cluster must run the same Lease value — the grant window is
	// cluster config, not a per-replica tunable.
	Lease time.Duration
	// Store persists the safety-critical consensus state — acceptor
	// promises and accepts, decided entries, the proposer ballot — so
	// the process can restart without violating past votes. Nil selects
	// durable.Nop (pure in-memory, zero cost): the default for sims and
	// every pre-durability configuration, byte-identical to before.
	Store durable.Store
	// SnapshotEvery checkpoints the store once per this many applied
	// commands, absorbing the applied prefix and letting the WAL
	// compact (0 = never snapshot). Only meaningful with a real Store.
	SnapshotEvery int
	// SnapshotState, when set, captures the application state machine
	// alongside each checkpoint; RestoreState re-installs it during
	// recovery, after which the engine replays only the decided entries
	// at or above the snapshot index through OnApply.
	SnapshotState func() []byte
	// RestoreState is SnapshotState's inverse (see above).
	RestoreState func([]byte)
	// Tracer, when non-nil, records causal spans for sampled commands on
	// this node and propagates their contexts on the wire inside TRACE
	// wrappers (see internal/tracing). Nil — the default — is the
	// disabled state: locally submitted commands start no traces,
	// incoming contexts record nothing here, and outbound messages carry
	// no wrappers, leaving the wire traffic byte-identical to a
	// pre-tracing build.
	Tracer *tracing.Tracer
}

func (c *Config) fill() {
	if c.DriveInterval <= 0 {
		c.DriveInterval = 20 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 16
	}
	if c.Store == nil {
		c.Store = durable.Nop
	}
}

// Node is the replicated-log automaton for one process, a composition of
// the layer states (see the package comment for the file map). Compose it
// with an Omega detector via node.Compose.
type Node struct {
	cfg   Config
	env   node.Env
	me    node.ID
	n     int
	omega consensus.Leadership
	rec   *consensus.Recorder

	acc     acceptor   // promised ballot, commit index
	log     logbook    // instance window: decisions, votes
	prop    proposer   // stable ballot, one-time phase 1
	pipe    pipeline   // windowed phase 2: flights
	bat     batcher    // queued client commands
	app     applier    // in-order apply + decision fan-out
	peers   []follower // what this replica knows of each process, by id
	lease   leaseState // read-lease grants, both sides
	reads   readState  // reads waiting at the leader, and their round
	held    []heldReq  // requests that arrived ahead of this replica's Omega
	acted   node.ID    // the Omega output drive last acted on (followOmega)
	driveAt sim.Time   // when the drive timer is set to fire (driveIn)
	// Where this node boxes the per-operation kinds it sends (msgs.go).
	accepts   node.Slab[AcceptMsg]
	accepteds node.Slab[AcceptedMsg]
	decides   node.Slab[DecideMsg]
	requests  node.Slab[RequestMsg]
	readReqs  node.Slab[ReadReqMsg]
	replies   node.Slab[ReadReplyMsg]

	snapBase int // applied count at the last durable checkpoint

	// The turn (turn.go): whether the runtime signals turn ends at all,
	// whether one is open and owed its signal, and what waits for it.
	turns, inTurn      bool
	pumpDue, commitDue bool

	// curCtx is the trace context of the message being delivered right
	// now — set when Deliver unwraps a tracing.Wrap, zero otherwise —
	// so inner handlers can attach their spans without every message
	// type growing a context field.
	curCtx tracing.Context
}

// follower is what this replica knows of one process (Node.peers), in two
// lifetimes. done is a fact about the process whoever leads, so it is never
// reset: how far it is known to have applied the log, its advertised first
// gap (Done on ACCEPTED, a PROMISE's first entry, LEARN), which only grows
// (observe). The least done, minDone, is the forgetting horizon: below it
// every process has applied, so nothing will ever be re-read or re-proposed.
// The leader stops serving by value below it and sends it on every ACCEPT
// (MinDone), a follower does the same below that, and a replica down or slow
// pins it, so nothing it may still ask for by value is refused. A ballot that forgot
// it would send a lower MinDone and pass decisions on by value to followers
// that hold them (passOn).
//
// The rest belongs to this leader at its ballot; an abdication zeroes it, so
// a new ballot announces afresh. told is the commit index last sent it, on
// an ACCEPT or a DECIDE: nobody is sent one index twice. owed: the applier
// has passed a command it waits on, and the end of the turn tells it.
// waiting is when it was first asked to answer since it was last heard from
// (zero: no ask outstanding), asked when it was last asked — by an ACCEPT
// that names it or nobody, or by a probe (reach). acked is the highest lease
// grant it has acked (quorumSeq). Of the own entry only acked, the own vote
// on the current grant, and done are read.
type follower struct {
	told           int
	owed           bool
	waiting, asked sim.Time
	acked          uint64
	done           int
}

var _ node.Automaton = (*Node)(nil)

// New returns a replicated-log node steered by the given leadership oracle.
func New(omega consensus.Leadership, cfg Config) *Node {
	cfg.fill()
	return &Node{
		cfg:   cfg,
		omega: omega,
		rec:   &consensus.Recorder{Split: appendCmds},
		acc:   acceptor{stuckGap: -1},
		log:   logbook{highestDecided: -1},
		lease: leaseState{holder: node.None},
		acted: node.None,
	}
}

// Submit hands a client command to this replica. Commands are delivered to
// the log at-least-once: a command caught in a leader change may be decided
// in more than one instance, so commands should be idempotent or carry
// client-side ids (see examples/replicatedkv). A command too large for an
// instance of its own (MaxValue) is dropped, with a log line.
func (r *Node) Submit(v consensus.Value) {
	if !r.admit(v) {
		return
	}
	if r.env == nil {
		r.bat.add(v, 0, tracing.Context{}, node.None)
		return
	}
	now := r.env.Now()
	// Locally submitted commands are the trace ingress: the sampling
	// decision is made here and the resulting context (zero when
	// unsampled or tracing is off) rides with the command from queue to
	// apply, across forwards included.
	r.bat.add(v, now, r.cfg.Tracer.StartTrace(now, "request"), r.me)
	if r.omega.Leader() == r.me && r.prop.prepared {
		// Fast path: feed the pipeline directly. A full batch (or an idle
		// pipeline) proposes at the end of the turn; otherwise the command
		// coalesces with its burst until the next decide or drive tick.
		r.pumpDue = true
	} else {
		r.drive()
	}
	r.settle()
}

// OnApply installs the apply hook, invoked in log order once per command
// (no-op fillers included — appliers skip consensus.Noop). Install before
// Start; the hook runs on the node's event loop.
func (r *Node) OnApply(fn func(inst, cmd int, v consensus.Value)) { r.app.onApply = fn }

// Recorder returns this process's decision log recorder. With batching,
// decisions are per command ((instance, cmd) keyed), recorded at apply
// time in log order.
func (r *Node) Recorder() *consensus.Recorder { return r.rec }

// FirstGap returns the first undecided instance (the log is fully decided
// below it).
func (r *Node) FirstGap() int { return r.log.firstGap }

// HighestDecided returns the largest decided instance, or -1.
func (r *Node) HighestDecided() int { return r.log.highestDecided }

// Applied returns how many commands this replica has applied in order
// (noop fillers included).
func (r *Node) Applied() int { return r.app.count }

// Retained returns how many decided instances from MinDone up this replica
// serves by value: the window's, and the applied ones its Recorder holds.
// It stays bounded while every replica keeps applying, and grows while one
// is down or cut off, which pins MinDone; the window does not grow.
func (r *Node) Retained() int { return r.log.decided }

// MinDone returns the forgetting horizon, never above FirstGap: every
// instance below it has been applied by every process (or, after a
// restart, is inside this replica's snapshot), and none is served by value
// any more. The Recorder, the one copy of the applied log, still holds them.
func (r *Node) MinDone() int { return r.log.low }

// IsLeader reports whether this replica currently holds a prepared ballot
// and believes itself leader.
func (r *Node) IsLeader() bool { return r.prop.prepared && r.omega.Leader() == r.me }

// Start implements node.Automaton.
func (r *Node) Start(env node.Env) {
	r.env = env
	r.me = env.ID()
	r.n = env.N()
	r.peers = make([]follower, r.n)
	r.lease.issued = make(map[uint64]sim.Time)
	if st := r.cfg.Store.State(); st != nil {
		r.restore(st)
	}
	r.armDrive(env.Now(), r.cfg.DriveInterval)
	r.followOmega() // the first output is an edge like any other
	r.settle()
}

// restore installs state recovered from the durable store: the process
// restarted and must re-enter the protocol exactly as constrained as its
// previous incarnation. Promised/ballot keep it from double-voting or
// reusing a value-bearing ballot; the snapshot index becomes the log's
// forgetting horizon (the applied prefix is absorbed into the App
// payload); decided entries and open acceptor votes are re-installed;
// and the recovered decided prefix is replayed through the applier so
// the application catches up before any new traffic arrives.
func (r *Node) restore(st *durable.State) {
	r.acc.promised = consensus.Ballot(st.Promised)
	r.prop.ballot = consensus.Ballot(st.Ballot) // Next() outbids every past own ballot
	low := int(st.SnapIndex)
	r.log.base, r.log.live, r.log.low, r.log.firstGap, r.log.highestDecided = low, low, low, low, low-1
	r.app.next = low
	r.app.count = int(st.SnapCount)
	r.snapBase = int(st.SnapCount)
	if r.cfg.RestoreState != nil && len(st.App) > 0 {
		r.cfg.RestoreState(st.App)
	}
	for _, d := range st.Decided {
		r.log.insert(int(d.Inst), consensus.Value(d.V))
	}
	for _, a := range st.Accepted { // accept keeps a decided slot's decision
		if inst := int(a.Inst); inst >= r.log.low {
			r.log.accept(inst, consensus.Ballot(a.B), consensus.Value(a.V))
		}
	}
	r.pipe.nextInst = max(r.pipe.nextInst, r.log.firstGap)
	if r.cfg.Lease > 0 {
		// The previous incarnation may have granted (or held) a lease
		// this one no longer remembers. Conservatively treat one as
		// outstanding: defer every prepare — foreign and our own — and
		// all local reads until a full Lease has passed on this clock.
		r.lease.restartHold = r.env.Now().Add(r.cfg.Lease)
	}
	r.apply() // replay the recovered decided prefix into the application
}

// Tick implements node.Automaton.
func (r *Node) Tick(key string) {
	if key == node.TurnEnd {
		r.turns, r.inTurn = true, false
		r.endTurn()
		return
	}
	r.inTurn = r.turns
	if key == timerDrive {
		r.armDrive(r.env.Now(), r.cfg.DriveInterval)
		r.drive()
	}
	r.followOmega() // any other key: the detector's timers are where its output moves
	r.settle()
}

// followOmega is the edge. The detector is composed ahead of this automaton
// on every runtime, so by the end of an event it has spoken: if that is not
// what drive last acted on, drive runs now, not on the next tick.
func (r *Node) followOmega() {
	if r.omega.Leader() != r.acted {
		r.drive()
	}
}

// drive is the housekeeping loop, run on every drive tick and on every
// change of Omega's output: leaders prepare, flush partial batches and
// retry stalled instances; followers forward commands and gap-fill.
func (r *Node) drive() {
	leader, now := r.omega.Leader(), r.env.Now()
	r.acted = leader
	r.expireHeld(now)
	r.answerDeferred()
	if leader != r.me {
		r.abdicateLeader()
		r.forwardPending(leader)
		r.fillGaps(leader)
		return
	}
	r.adoptHeld()
	if !r.prop.prepared {
		if wait := r.leaseWait(r.me, now); wait > 0 {
			r.driveIn(now, wait)
			return // honor a standing grant to the previous leader
		}
		if !r.prop.preparing || now.Sub(r.prop.prepStarted) >= r.prop.prepTimeout {
			r.startPrepare()
		}
		return
	}
	r.pump(true) // flush partial batches queued since the last tick
	r.learnFloor(now, r.cfg.DriveInterval)
	r.redrive(now)
	r.catchUp(now)
	r.refreshLease(now)
	r.log.forgetBelow(r.minDone())
}

// fillGaps asks the leader for decisions, by value, when this replica has
// been stuck for a whole drive interval: behind — a hole under a decision
// it holds, or a decided prefix short of the commit index it has heard —
// with its first gap not moving. Out-of-order delivery opens such gaps all
// the time and closes them within a link delay; only one that outlives an
// interval is loss (or a restart that forgot the votes). Votes that have
// gone quiet for a retryTimeout ask too: the commit that should have
// closed them died with its leader.
func (r *Node) fillGaps(leader node.ID) {
	if leader == node.None || leader == r.me {
		return
	}
	now, gap := r.env.Now(), r.log.firstGap
	behind := gap <= r.log.highestDecided || gap < r.acc.commitUpTo
	if !behind {
		r.acc.stuckGap = -1
	} else if gap != r.acc.stuckGap {
		r.acc.stuckGap, r.acc.stuckSince = gap, now
	}
	stuck := behind && now.Sub(r.acc.stuckSince) >= r.cfg.DriveInterval
	stale := r.log.voted > 0 &&
		now.Sub(r.acc.lastAcceptAt) >= retryTimeout
	// One ask per interval: Submit drives too, many times a tick.
	if (stuck || stale) && now.Sub(r.acc.askedAt) >= r.cfg.DriveInterval {
		r.acc.askedAt = now
		r.env.Send(leader, LearnMsg{FirstGap: gap})
	}
}

// Deliver implements node.Automaton.
func (r *Node) Deliver(from node.ID, m node.Message) {
	r.inTurn = r.turns
	if uint(from) < uint(len(r.peers)) {
		r.peers[from].waiting = 0 // anything it sends is an answer (reach)
	}
	r.handle(from, m)
	r.followOmega()
	r.settle()
}

func (r *Node) handle(from node.ID, m node.Message) {
	if w, ok := m.(tracing.Wrap); ok {
		// Install the carried context for the inner handler, then clear
		// it: curCtx always describes the message being delivered right
		// now. The codec rejects nested wrappers, so this recurses once.
		r.curCtx = w.Ctx
		r.handle(from, w.Inner)
		r.curCtx = tracing.Context{}
		return
	}
	switch msg := m.(type) {
	case *RequestMsg:
		r.onRequest(from, *msg)
	case PrepareMsg:
		r.onPrepare(from, msg)
	case PromiseMsg:
		r.onPromise(from, msg)
	case NackMsg:
		r.onNack(msg)
	case *AcceptMsg:
		r.onAccept(from, *msg)
	case *AcceptedMsg:
		r.onAccepted(from, *msg)
	case *DecideMsg:
		if msg.B != consensus.NoBallot {
			r.onCommit(msg.B, msg.Inst)
		} else {
			if r.learn(msg.Inst, msg.V) && r.prop.prepared && msg.Inst < r.prop.floor {
				r.passOn(from, *msg)
			}
			r.commitDue = true // a leader repaired by value passes it on by index
		}
	case LearnMsg:
		r.onLearn(from, msg)
	case LeaseGrantMsg:
		r.onLeaseGrant(from, msg)
	case LeaseAckMsg:
		r.onLeaseAck(from, msg.B, msg.Seq)
	case *ReadReqMsg:
		r.onReadReq(from, *msg)
	case *ReadReplyMsg:
		r.onReadReply(*msg)
	}
}

// traced wraps m with ctx when the context is live — the outbound half
// of context propagation. Unsampled traffic takes the no-alloc path.
func (r *Node) traced(ctx tracing.Context, m node.Message) node.Message {
	if !ctx.Valid() {
		return m
	}
	return tracing.Wrap{Ctx: ctx, Inner: m}
}
