// Package ct implements the classic rotating-coordinator consensus in the
// style of Chandra–Toueg's ◊S protocol, used as the paper's message-cost
// baseline (experiment E6).
//
// Computation proceeds in asynchronous rounds; the coordinator of round r
// is process r mod n. Each round has four phases: every process sends its
// timestamped estimate to the coordinator; the coordinator picks the
// estimate with the highest timestamp among a majority and broadcasts it
// as the round's proposal; each process either adopts and ACKs the
// proposal or times out and NACKs; a coordinator collecting a majority of
// ACKs decides and disseminates the decision by reliable broadcast (every
// process re-broadcasts the first DECIDE it sees). Safety is the classic
// locking argument — a decided value has a majority of timestamps ≥ its
// round, and every later proposal is chosen as the max-timestamp estimate
// of a majority, which intersects that quorum. Liveness needs a majority
// of correct processes plus eventually reliable round coordination, which
// the adaptive round timeout provides once links stabilize.
//
// Message cost per round is Θ(n) to the coordinator, Θ(n) from it, Θ(n)
// replies, and the decision costs Θ(n²) through the reliable broadcast —
// and unlike the leader-driven protocol (internal/consensus/rsm) the round
// structure keeps **every** process sending in **every** round, so
// repeated consensus never becomes
// communication-efficient. That contrast is the paper's point.
package ct

import (
	"fmt"
	"time"

	"repro/internal/consensus"
	"repro/internal/node"
)

// Message kind tags.
const (
	// KindEstimate tags phase-1 estimates sent to the coordinator.
	KindEstimate = "CT-EST"
	// KindProposal tags the coordinator's phase-2 broadcast.
	KindProposal = "CT-PROP"
	// KindAck tags phase-3 adoptions.
	KindAck = "CT-ACK"
	// KindNack tags phase-3 suspicions.
	KindNack = "CT-NACK"
	// KindDecide tags the reliable decision broadcast.
	KindDecide = "CT-DECIDE"
)

// EstimateMsg carries a process's current estimate to a round coordinator.
type EstimateMsg struct {
	R   int
	Est consensus.Value
	TS  int
}

// ProposalMsg is the coordinator's proposal for round R.
type ProposalMsg struct {
	R int
	V consensus.Value
}

// AckMsg acknowledges adoption of round R's proposal.
type AckMsg struct{ R int }

// NackMsg reports a timeout on round R's coordinator.
type NackMsg struct{ R int }

// DecideMsg announces the decided value (reliably re-broadcast).
type DecideMsg struct{ V consensus.Value }

// Timer keys.
const (
	timerRound = "ct/round"
	timerBoot  = "ct/boot"
)

// The initial wait for a coordinator proposal, and how much each timeout
// grows it.
const (
	roundTimeout = 30 * time.Millisecond
	increment    = 10 * time.Millisecond
)

// coordState is the coordinator-side bookkeeping for one round.
type coordState struct {
	estimates map[node.ID]EstimateMsg
	proposed  bool
	proposal  consensus.Value
	acks      map[node.ID]bool
	nacks     map[node.ID]bool
	closed    bool
}

// Node is the rotating-coordinator consensus automaton for one process.
type Node struct {
	env node.Env
	me  node.ID
	n   int
	rec *consensus.Recorder

	est     consensus.Value
	ts      int
	round   int
	replied bool // replied (ack/nack) in the current round
	timeout time.Duration

	decided  bool
	decision consensus.Value

	coord map[int]*coordState
}

var _ node.Automaton = (*Node)(nil)

// New returns a rotating-coordinator node.
func New() *Node {
	return &Node{rec: consensus.NewRecorder(), coord: make(map[int]*coordState)}
}

// Propose submits this process's input. It must be called before the world
// starts (the protocol enters round 0 with the proposal as estimate).
func (c *Node) Propose(v consensus.Value) {
	if c.est == consensus.NoValue {
		c.est = v
	}
}

// Decided returns the decision, if learned.
func (c *Node) Decided() (consensus.Value, bool) { return c.decision, c.decided }

// Recorder returns this process's decision log.
func (c *Node) Recorder() *consensus.Recorder { return c.rec }

// Start implements node.Automaton.
func (c *Node) Start(env node.Env) {
	c.env = env
	c.me = env.ID()
	c.n = env.N()
	c.round = -1
	c.timeout = roundTimeout
	if c.est == consensus.NoValue {
		// No input yet: poll until Propose is called.
		env.SetTimer(timerBoot, roundTimeout)
		return
	}
	c.enterRound(0)
}

// Tick implements node.Automaton.
func (c *Node) Tick(key string) {
	switch key {
	case timerBoot:
		if c.decided {
			return
		}
		if c.est == consensus.NoValue {
			c.env.SetTimer(timerBoot, roundTimeout)
			return
		}
		if c.round < 0 {
			c.enterRound(0)
		}
	case timerRound:
		if c.decided || c.replied {
			return
		}
		// Suspect the coordinator: NACK and move on. Growing the wait
		// keeps false suspicions finite after stabilization.
		c.timeout += increment
		c.reply(false)
	}
}

func (c *Node) coordinator(r int) node.ID { return node.ID(r % c.n) }

// enterRound moves to round r and sends the phase-1 estimate.
func (c *Node) enterRound(r int) {
	c.round = r
	c.replied = false
	c.env.SetTimer(timerRound, c.timeout)
	co := c.coordinator(r)
	est := EstimateMsg{R: r, Est: c.est, TS: c.ts}
	if co == c.me {
		c.onEstimate(c.me, est)
	} else {
		c.env.Send(co, est)
	}
}

// reply sends this round's ACK/NACK to the coordinator and advances.
func (c *Node) reply(ack bool) {
	r := c.round
	c.replied = true
	c.env.StopTimer(timerRound)
	co := c.coordinator(r)
	if co == c.me {
		if ack {
			c.onReply(c.me, r, true)
		} else {
			c.onReply(c.me, r, false)
		}
	} else {
		if ack {
			c.env.Send(co, AckMsg{R: r})
		} else {
			c.env.Send(co, NackMsg{R: r})
		}
	}
	if !c.decided {
		c.enterRound(r + 1)
	}
}

// Deliver implements node.Automaton.
func (c *Node) Deliver(from node.ID, m node.Message) {
	switch msg := m.(type) {
	case EstimateMsg:
		c.onEstimate(from, msg)
	case ProposalMsg:
		c.onProposal(msg)
	case AckMsg:
		c.onReply(from, msg.R, true)
	case NackMsg:
		c.onReply(from, msg.R, false)
	case DecideMsg:
		c.onDecide(msg.V)
	}
}

func (c *Node) state(r int) *coordState {
	st, ok := c.coord[r]
	if !ok {
		st = &coordState{
			estimates: make(map[node.ID]EstimateMsg),
			acks:      make(map[node.ID]bool),
			nacks:     make(map[node.ID]bool),
		}
		c.coord[r] = st
	}
	return st
}

func (c *Node) onEstimate(from node.ID, m EstimateMsg) {
	if c.decided {
		c.env.Send(from, DecideMsg{V: c.decision})
		return
	}
	if c.coordinator(m.R) != c.me {
		return
	}
	st := c.state(m.R)
	if st.closed || st.proposed {
		return
	}
	st.estimates[from] = m
	if len(st.estimates) < consensus.Majority(c.n) {
		return
	}
	// Pick the estimate with the highest timestamp; ties carry the same
	// value (a timestamp names the single proposal of that round).
	best := EstimateMsg{TS: -1}
	for _, e := range st.estimates {
		if e.TS > best.TS {
			best = e
		}
	}
	st.proposed = true
	st.proposal = best.Est
	prop := ProposalMsg{R: m.R, V: best.Est}
	c.env.Broadcast(prop)
	c.onProposal(prop) // the coordinator participates in its own round
}

func (c *Node) onProposal(m ProposalMsg) {
	if c.decided {
		return
	}
	if m.R < c.round || (m.R == c.round && c.replied) {
		return // stale: we already gave up on that round
	}
	if m.R > c.round {
		// We lag behind; jump to the proposal's round so our ACK counts.
		c.timeout += increment
		c.round = m.R
		c.replied = false
	}
	c.est = m.V
	c.ts = m.R
	c.reply(true)
}

func (c *Node) onReply(from node.ID, r int, ack bool) {
	if c.decided {
		if !ack {
			return
		}
		c.env.Send(from, DecideMsg{V: c.decision})
		return
	}
	if c.coordinator(r) != c.me {
		return
	}
	st := c.state(r)
	if st.closed || !st.proposed {
		return
	}
	if ack {
		st.acks[from] = true
	} else {
		st.nacks[from] = true
	}
	if len(st.acks) >= consensus.Majority(c.n) {
		st.closed = true
		c.onDecide(st.proposal)
		return
	}
	if len(st.acks)+len(st.nacks) >= consensus.Majority(c.n) && len(st.nacks) > 0 {
		// The round failed; participants have timed out or will. Close
		// the book on it.
		st.closed = true
	}
}

// onDecide implements the reliable broadcast: the first DECIDE a process
// learns is re-broadcast to everyone before being recorded.
func (c *Node) onDecide(v consensus.Value) {
	if c.decided {
		return
	}
	c.decided = true
	c.decision = v
	c.env.StopTimer(timerRound)
	c.env.StopTimer(timerBoot)
	c.env.Broadcast(DecideMsg{V: v})
	c.rec.RecordInstance(0, v, c.env.Now(), c.me, nil)
	c.env.Logf("ct: decided %q in round %d", string(v), c.round)
}

// String aids debugging.
func (c *Node) String() string {
	return fmt.Sprintf("ct{p%d round=%d est=%q ts=%d decided=%v}", c.me, c.round, c.est, c.ts, c.decided)
}
