// Package synod implements the paper's leader-driven single-decree
// consensus: a Paxos-style synod protocol whose proposer role is gated by
// the co-located Omega module, so that once Omega stabilizes exactly one
// process drives ballots.
//
// With a majority of correct processes and reliable links, the protocol is
// safe under any asynchrony (ballot/quorum intersection — the classic synod
// argument) and live once Omega stabilizes on a correct leader. Its message
// cost is the paper's selling point: a stable leader decides in two
// round-trips — (n−1) PREPARE + (n−1) PROMISE + (n−1) ACCEPT + (n−1)
// ACCEPTED — plus an (n−1) DECIDE broadcast, all Θ(n), where the classic
// rotating-coordinator protocol (internal/consensus/ct) pays Θ(n²) per
// round through its per-round all-to-all phases and reliable decision
// broadcast. Experiment E6 regenerates that comparison.
package synod

import (
	"time"

	"repro/internal/consensus"
	"repro/internal/durable"
	"repro/internal/node"
	"repro/internal/sim"
)

// Message kind tags.
const (
	// KindPrepare tags phase-1a ballot announcements.
	KindPrepare = "PREPARE"
	// KindPromise tags phase-1b acknowledgements.
	KindPromise = "PROMISE"
	// KindNack tags ballot rejections.
	KindNack = "NACK"
	// KindAccept tags phase-2a value proposals.
	KindAccept = "ACCEPT"
	// KindAccepted tags phase-2b acknowledgements.
	KindAccepted = "ACCEPTED"
	// KindDecide tags decision announcements.
	KindDecide = "DECIDE"
	// KindLearn tags "please resend the decision" requests from
	// undecided processes to the current leader.
	KindLearn = "LEARN"
	// KindRequest tags proposal forwarding from non-leaders to the
	// leader.
	KindRequest = "SYNOD-REQ"
)

// RequestMsg forwards a non-leader's proposal to the believed leader.
type RequestMsg struct{ V consensus.Value }

// Kind implements node.Message.
func (RequestMsg) Kind() string { return KindRequest }

// PrepareMsg opens ballot B (phase 1a).
type PrepareMsg struct{ B consensus.Ballot }

// Kind implements node.Message.
func (PrepareMsg) Kind() string { return KindPrepare }

// PromiseMsg acknowledges ballot B and reports the acceptor's
// highest-accepted (ballot, value) pair (phase 1b).
type PromiseMsg struct {
	B    consensus.Ballot
	AccB consensus.Ballot
	AccV consensus.Value
}

// Kind implements node.Message.
func (PromiseMsg) Kind() string { return KindPromise }

// NackMsg rejects ballot B because the sender already promised Promised.
type NackMsg struct {
	B        consensus.Ballot
	Promised consensus.Ballot
}

// Kind implements node.Message.
func (NackMsg) Kind() string { return KindNack }

// AcceptMsg asks acceptors to accept value V at ballot B (phase 2a).
type AcceptMsg struct {
	B consensus.Ballot
	V consensus.Value
}

// Kind implements node.Message.
func (AcceptMsg) Kind() string { return KindAccept }

// AcceptedMsg acknowledges acceptance of ballot B (phase 2b).
type AcceptedMsg struct{ B consensus.Ballot }

// Kind implements node.Message.
func (AcceptedMsg) Kind() string { return KindAccepted }

// DecideMsg announces the decided value.
type DecideMsg struct{ V consensus.Value }

// Kind implements node.Message.
func (DecideMsg) Kind() string { return KindDecide }

// LearnMsg asks its receiver to resend the decision if it knows one.
type LearnMsg struct{}

// Kind implements node.Message.
func (LearnMsg) Kind() string { return KindLearn }

const timerDrive = "synod/drive"

// Config parameterizes the protocol. Zero values select defaults.
type Config struct {
	// DriveInterval is how often a potential leader re-evaluates whether
	// to (re)start a ballot (default 20ms).
	DriveInterval time.Duration
	// RetryTimeout is how long an in-flight ballot may stall before the
	// leader outbids itself (default 100ms).
	RetryTimeout time.Duration
	// Store persists the acceptor's promise and vote, the proposer's
	// ballot, and the decision, so a restarted process re-enters the
	// protocol bound by its pre-crash past. Nil selects durable.Nop.
	// Single-decree consensus uses instance number 0 for every record,
	// and flushes each one on the spot: a handful per decision, with
	// nothing to batch them with.
	Store durable.Store
}

func (c *Config) fill() {
	if c.DriveInterval <= 0 {
		c.DriveInterval = 20 * time.Millisecond
	}
	if c.RetryTimeout <= 0 {
		c.RetryTimeout = 100 * time.Millisecond
	}
	if c.Store == nil {
		c.Store = durable.Nop
	}
}

// ballot phases.
const (
	phaseIdle = iota
	phasePrepare
	phaseAccept
)

// Node is the synod automaton for one process. Compose it with an Omega
// detector via node.Compose.
type Node struct {
	cfg   Config
	env   node.Env
	me    node.ID
	n     int
	omega consensus.Leadership
	rec   *consensus.Recorder

	proposal consensus.Value

	// Acceptor state.
	promised consensus.Ballot
	accB     consensus.Ballot
	accV     consensus.Value

	// Learner state.
	decided  bool
	decision consensus.Value

	// Proposer (leader) state.
	cur        consensus.Ballot
	curStarted sim.Time
	curTimeout time.Duration // exponential backoff on stalled ballots
	phase      int
	chosenV    consensus.Value
	promises   map[node.ID]PromiseMsg
	accepts    map[node.ID]bool
}

// maxRetryTimeout caps the ballot retry backoff.
const maxRetryTimeout = 5 * time.Second

var _ node.Automaton = (*Node)(nil)

// New returns a synod node steered by the given leadership oracle.
func New(omega consensus.Leadership, cfg Config) *Node {
	cfg.fill()
	return &Node{cfg: cfg, omega: omega, rec: consensus.NewRecorder()}
}

// Propose submits this process's input value. Calling it again, or after a
// decision, has no effect.
func (s *Node) Propose(v consensus.Value) {
	if s.proposal == consensus.NoValue {
		s.proposal = v
	}
}

// Decided returns the decision, if learned.
func (s *Node) Decided() (consensus.Value, bool) { return s.decision, s.decided }

// Recorder returns this process's decision log.
func (s *Node) Recorder() *consensus.Recorder { return s.rec }

// Start implements node.Automaton.
func (s *Node) Start(env node.Env) {
	s.env = env
	s.me = env.ID()
	s.n = env.N()
	if st := s.cfg.Store.State(); st != nil {
		s.restore(st)
	}
	env.SetTimer(timerDrive, s.cfg.DriveInterval)
}

// restore re-installs recovered acceptor, proposer, and learner state:
// the restarted process may never promise below its pre-crash promise,
// vote against its pre-crash vote, or reuse a pre-crash ballot.
func (s *Node) restore(st *durable.State) {
	s.promised = consensus.Ballot(st.Promised)
	s.cur = consensus.Ballot(st.Ballot) // Next() outbids it on the next drive
	for _, a := range st.Accepted {
		if a.Inst == 0 {
			s.accB, s.accV = consensus.Ballot(a.B), consensus.Value(a.V)
		}
	}
	for _, d := range st.Decided {
		if d.Inst == 0 {
			s.decided, s.decision = true, consensus.Value(d.V)
			s.rec.Record(consensus.Decision{Instance: 0, Value: s.decision, At: s.env.Now(), By: s.me})
		}
	}
}

// Tick implements node.Automaton.
func (s *Node) Tick(key string) {
	if key != timerDrive {
		return
	}
	if s.decided {
		return // decision learned: the drive loop retires
	}
	s.env.SetTimer(timerDrive, s.cfg.DriveInterval)
	leader := s.omega.Leader()
	if leader != s.me {
		if leader != node.None {
			// Nudge the leader for a decision we may have missed, and
			// forward our proposal so a leader without its own input
			// can still drive.
			s.env.Send(leader, LearnMsg{})
			if s.proposal != consensus.NoValue {
				s.env.Send(leader, RequestMsg{V: s.proposal})
			}
		}
		return
	}
	if s.proposal == consensus.NoValue && s.accV == consensus.NoValue {
		return // nothing to drive yet
	}
	if s.curTimeout == 0 {
		s.curTimeout = s.cfg.RetryTimeout
	}
	stalled := s.cur != consensus.NoBallot && s.env.Now().Sub(s.curStarted) >= s.curTimeout
	if s.cur == consensus.NoBallot || stalled {
		s.startBallot()
	}
}

// startBallot opens a fresh ballot above everything this process has seen.
func (s *Node) startBallot() {
	base := s.promised
	if s.cur > base {
		base = s.cur
	}
	s.cur = base.Next(s.me, s.n)
	s.curStarted = s.env.Now()
	// Back off exponentially: an abandoned ballot usually means the
	// retry window was shorter than the quorum round trip.
	if s.curTimeout == 0 {
		s.curTimeout = s.cfg.RetryTimeout
	} else if s.curTimeout < maxRetryTimeout {
		s.curTimeout *= 2
	}
	s.phase = phasePrepare
	s.promises = make(map[node.ID]PromiseMsg, s.n)
	s.accepts = nil
	// Self-prepare: adopt the ballot locally and promise to ourselves —
	// durably, before the PREPARE makes the ballot visible.
	s.promised = s.cur
	s.cfg.Store.Ballot(uint64(s.cur))
	s.cfg.Store.Promise(uint64(s.cur))
	s.cfg.Store.Flush()
	s.promises[s.me] = PromiseMsg{B: s.cur, AccB: s.accB, AccV: s.accV}
	s.env.Logf("synod: ballot %v opened", s.cur)
	s.env.Broadcast(PrepareMsg{B: s.cur})
	s.maybeFinishPrepare()
}

// Deliver implements node.Automaton.
func (s *Node) Deliver(from node.ID, m node.Message) {
	switch msg := m.(type) {
	case PrepareMsg:
		s.onPrepare(from, msg)
	case PromiseMsg:
		s.onPromise(from, msg)
	case NackMsg:
		s.onNack(from, msg)
	case AcceptMsg:
		s.onAccept(from, msg)
	case AcceptedMsg:
		s.onAccepted(from, msg)
	case DecideMsg:
		s.decide(msg.V)
	case LearnMsg:
		if s.decided {
			s.env.Send(from, DecideMsg{V: s.decision})
		}
	case RequestMsg:
		s.Propose(msg.V)
	}
}

func (s *Node) onPrepare(from node.ID, m PrepareMsg) {
	if s.decided {
		s.env.Send(from, DecideMsg{V: s.decision})
		return
	}
	if m.B > s.promised {
		s.promised = m.B
		// Durable before visible: the promise binds even across kill -9.
		s.cfg.Store.Promise(uint64(m.B))
		s.cfg.Store.Flush()
		s.env.Send(from, PromiseMsg{B: m.B, AccB: s.accB, AccV: s.accV})
	} else {
		s.env.Send(from, NackMsg{B: m.B, Promised: s.promised})
	}
}

func (s *Node) onPromise(from node.ID, m PromiseMsg) {
	if s.decided || s.phase != phasePrepare || m.B != s.cur {
		return
	}
	s.promises[from] = m
	s.maybeFinishPrepare()
}

func (s *Node) maybeFinishPrepare() {
	if s.phase != phasePrepare || len(s.promises) < consensus.Majority(s.n) {
		return
	}
	// Choose the value of the highest accepted ballot in the quorum, or
	// our own proposal if the quorum is unconstrained.
	var bestB consensus.Ballot
	value := consensus.NoValue
	for _, p := range s.promises {
		if p.AccB > bestB {
			bestB = p.AccB
			value = p.AccV
		}
	}
	if value == consensus.NoValue {
		value = s.proposal
	}
	if value == consensus.NoValue {
		// A leader with no input and an unconstrained quorum waits for
		// a proposal; the ballot stays open.
		return
	}
	s.phase = phaseAccept
	s.chosenV = value
	s.accepts = map[node.ID]bool{s.me: true}
	// Self-accept, durable before the broadcast makes it visible.
	s.accB = s.cur
	s.accV = value
	s.cfg.Store.Accept(0, uint64(s.cur), string(value))
	s.cfg.Store.Flush()
	s.env.Broadcast(AcceptMsg{B: s.cur, V: value})
	s.maybeFinishAccept()
}

func (s *Node) onNack(from node.ID, m NackMsg) {
	if s.decided || m.B != s.cur || s.cur == consensus.NoBallot {
		return
	}
	if m.Promised > s.promised {
		s.promised = m.Promised
	}
	// Force a retry at the next drive tick: the ballot lost.
	s.phase = phaseIdle
	s.curStarted = s.curStarted.Add(-maxRetryTimeout)
}

func (s *Node) onAccept(from node.ID, m AcceptMsg) {
	if s.decided {
		s.env.Send(from, DecideMsg{V: s.decision})
		return
	}
	if m.B >= s.promised {
		s.promised = m.B
		s.accB = m.B
		s.accV = m.V
		// Durable before visible; the record also implies the promise.
		s.cfg.Store.Accept(0, uint64(m.B), string(m.V))
		s.cfg.Store.Flush()
		s.env.Send(from, AcceptedMsg{B: m.B})
	} else {
		s.env.Send(from, NackMsg{B: m.B, Promised: s.promised})
	}
}

func (s *Node) onAccepted(from node.ID, m AcceptedMsg) {
	if s.decided || s.phase != phaseAccept || m.B != s.cur {
		return
	}
	s.accepts[from] = true
	s.maybeFinishAccept()
}

func (s *Node) maybeFinishAccept() {
	if s.phase != phaseAccept || len(s.accepts) < consensus.Majority(s.n) {
		return
	}
	v := s.chosenV
	s.decide(v)
	s.env.Broadcast(DecideMsg{V: v})
}

func (s *Node) decide(v consensus.Value) {
	if s.decided {
		return
	}
	s.decided = true
	s.decision = v
	s.phase = phaseIdle
	s.cfg.Store.Decide(0, string(v))
	s.cfg.Store.Flush()
	s.rec.Record(consensus.Decision{Instance: 0, Value: v, At: s.env.Now(), By: s.me})
	s.env.Logf("synod: decided %q", string(v))
	s.env.StopTimer(timerDrive)
}
