// Package core implements the paper's primary contribution: a
// communication-efficient Omega (eventual leader election) algorithm for
// crash-stop systems with limited link synchrony.
//
// # System assumptions
//
// Links never duplicate or corrupt messages and are reliable (every message
// sent between live processes is eventually delivered), but delays are
// unbounded except for the output links of at least one correct process —
// an "eventually timely source" (◊-source): there is an unknown global
// stabilization time GST and an unknown bound δ such that every message the
// source sends after GST arrives within δ.
//
// # Algorithm
//
// Every process p keeps an accusation counter counter[q] for each process q
// and elects leader(p) = argmin over q of the pair (counter[q], q) under
// lexicographic order. Only a process that currently believes itself leader
// sends heartbeats: every η it broadcasts LEADER(epoch), where epoch is its
// own accusation count. A process monitoring a leader q arms a timeout;
// when the timeout fires it sends an ACCUSE(epoch) message to q — carrying
// the epoch it is accusing — bumps its local counter[q] to epoch+1,
// increases its timeout for q (so premature suspicions die out after GST),
// and re-elects. A process receiving ACCUSE(e) with e >= its own counter
// advances its counter to e+1 (the epoch guard makes stale or duplicate
// accusations harmless) and re-elects.
//
// # Why it implements Omega and is communication-efficient
//
//   - Accusation counters are monotone and merge by maximum, so the
//     relation "p believes q was accused k times" only grows; the epoch
//     guard ties each increment at the accused to a distinct accusation
//     epoch, so the accused's self-counter always dominates every remote
//     view of it once its heartbeats propagate (links are reliable). This
//     rules out permanent split-brain: two self-believed leaders exchange
//     heartbeats and the lexicographically larger one demotes itself.
//   - A ◊-source that becomes leader stops being accused: each of the
//     finitely many accusations grows the accuser's timeout past δ + η
//     eventually, so the source's counter stabilizes system-wide. Any
//     process with a forever-smaller (counter, id) pair either broadcasts
//     timely forever (then it is a stable correct leader — Omega holds with
//     it) or keeps being accused until it is ordered after the source.
//     Hence eventually exactly one correct process believes itself leader
//     and everyone else trusts it.
//   - After that point only the leader sends: heartbeats flow on exactly
//     n−1 links, and no accusations are generated — the algorithm is
//     communication-efficient in the paper's sense.
//
// The package also exposes ablation switches (WithoutTimeoutGrowth,
// WithoutEpochGuard, WithoutAccuseMessages) used by experiment E9 to show
// that each mechanism is load-bearing, and one robustness extension beyond
// the paper's model (WithRebuff, experiment E13) that repairs the
// stale-self-leader deadlock left behind by message loss the reliable-link
// assumption forbids.
package core

import (
	"fmt"
	"time"

	"repro/internal/detector"
	"repro/internal/node"
	"repro/internal/obs"
)

// Message kind tags.
const (
	// KindLeader tags heartbeat broadcasts from self-believed leaders.
	KindLeader = "LEADER"
	// KindAccuse tags point-to-point accusations.
	KindAccuse = "ACCUSE"
	// KindRebuff tags stale-leader corrections (WithRebuff extension).
	KindRebuff = "REBUFF"
)

// Kind ids are interned once at package init so the steady-state send path
// (a leader heartbeat every η) never hashes a kind string.
var (
	kindLeaderID = obs.Intern(KindLeader)
	kindAccuseID = obs.Intern(KindAccuse)
	kindRebuffID = obs.Intern(KindRebuff)
)

// LeaderMsg is the heartbeat a self-believed leader broadcasts every η.
// Epoch is the sender's own accusation count, letting receivers max-merge.
type LeaderMsg struct {
	Epoch uint64
}

// KindID implements node.Message.
func (LeaderMsg) KindID() obs.Kind { return kindLeaderID }

// AccuseMsg tells its receiver "I timed out on you while you were my leader
// during your reign Epoch".
type AccuseMsg struct {
	Epoch uint64
}

// KindID implements node.Message.
func (AccuseMsg) KindID() obs.Kind { return kindAccuseID }

// RebuffMsg tells a stale self-believed leader "your accusation count is
// really Epoch" (see WithRebuff). It merges existing lattice information;
// it never invents accusations.
type RebuffMsg struct {
	Epoch uint64
}

// KindID implements node.Message.
func (RebuffMsg) KindID() obs.Kind { return kindRebuffID }

// Timer keys.
const (
	timerHeartbeat = "core/hb"
	timerMonitor   = "core/mon"
)

type config struct {
	eta           time.Duration
	baseTimeout   time.Duration
	timeoutGrowth bool
	epochGuard    bool
	accuseMsgs    bool
	rebuff        bool
}

// Option customizes the detector.
type Option func(*config)

// WithEta sets the heartbeat period η (default 10ms).
func WithEta(d time.Duration) Option { return func(c *config) { c.eta = d } }

// WithBaseTimeout sets the initial per-process monitoring timeout
// (default 3η).
func WithBaseTimeout(d time.Duration) Option { return func(c *config) { c.baseTimeout = d } }

// WithoutTimeoutGrowth is an ablation: timeouts stay fixed, so premature
// suspicions never die out and leadership can oscillate forever.
func WithoutTimeoutGrowth() Option { return func(c *config) { c.timeoutGrowth = false } }

// WithoutEpochGuard is an ablation: every received accusation bumps the
// counter, so stale and duplicate accusations inflate it.
func WithoutEpochGuard() Option { return func(c *config) { c.epochGuard = false } }

// WithoutAccuseMessages is an ablation: accusers bump only their local
// counter without telling the accused, which permits permanent split-brain
// under asymmetric delays.
func WithoutAccuseMessages() Option { return func(c *config) { c.accuseMsgs = false } }

// WithRebuff is a robustness extension beyond the paper's model: a process
// receiving a heartbeat from a non-leader whose claimed epoch lags the
// receiver's view answers with the higher count. Under the paper's
// reliable links this never fires after stabilization (heartbeat epochs
// are current), but it repairs the stale-self-leader deadlock left behind
// by a *lossy* partition that swallowed accusations — see experiment E13.
func WithRebuff() Option { return func(c *config) { c.rebuff = true } }

// Detector is the communication-efficient Omega automaton for one process.
type Detector struct {
	cfg  config
	env  node.Env
	me   node.ID
	n    int
	hist *detector.History

	counter []uint64
	timeout []time.Duration
	leader  node.ID

	// accusationsSent counts ACCUSE messages issued, exposed for
	// experiments probing stabilization cost.
	accusationsSent uint64
}

var _ detector.Omega = (*Detector)(nil)

// New returns a detector with the given options applied.
func New(opts ...Option) *Detector {
	cfg := config{
		eta:           10 * time.Millisecond,
		timeoutGrowth: true,
		epochGuard:    true,
		accuseMsgs:    true,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.baseTimeout == 0 {
		cfg.baseTimeout = 3 * cfg.eta
	}
	if cfg.eta <= 0 {
		panic(fmt.Sprintf("core: non-positive eta %v", cfg.eta))
	}
	return &Detector{cfg: cfg, hist: detector.NewHistory(), leader: node.None}
}

// Leader implements detector.Omega.
func (d *Detector) Leader() node.ID { return d.leader }

// History implements detector.Omega.
func (d *Detector) History() *History { return d.hist }

// History is re-exported so callers needn't import internal/detector for
// the common case.
type History = detector.History

// AccusationsSent returns how many ACCUSE messages this process issued.
func (d *Detector) AccusationsSent() uint64 { return d.accusationsSent }

// Counter returns this process's current accusation count for q (test and
// experiment hook).
func (d *Detector) Counter(q node.ID) uint64 { return d.counter[q] }

// Start implements node.Automaton.
func (d *Detector) Start(env node.Env) {
	d.env = env
	d.me = env.ID()
	d.n = env.N()
	d.counter = make([]uint64, d.n)
	d.timeout = make([]time.Duration, d.n)
	for i := range d.timeout {
		d.timeout[i] = d.cfg.baseTimeout
	}
	d.elect()
	env.SetTimer(timerHeartbeat, d.cfg.eta)
}

// Deliver implements node.Automaton.
func (d *Detector) Deliver(from node.ID, m node.Message) {
	switch msg := m.(type) {
	case LeaderMsg:
		if msg.Epoch > d.counter[from] {
			d.counter[from] = msg.Epoch
		}
		d.elect()
		if d.leader == from {
			// Heartbeat from the current leader refreshes the watchdog.
			d.env.SetTimer(timerMonitor, d.timeout[from])
		} else if d.cfg.rebuff && d.counter[from] > msg.Epoch {
			// The sender believes it leads but its self-count is
			// stale: relay the lattice so it can demote itself.
			d.env.Send(from, RebuffMsg{Epoch: d.counter[from]})
		}
	case RebuffMsg:
		if msg.Epoch > d.counter[d.me] {
			d.counter[d.me] = msg.Epoch
			d.elect()
		}
	case AccuseMsg:
		if d.cfg.epochGuard {
			if msg.Epoch >= d.counter[d.me] {
				d.counter[d.me] = msg.Epoch + 1
			}
		} else {
			d.counter[d.me]++
		}
		d.elect()
	default:
		// Unknown messages are ignored: the detector may share a world
		// with consensus automatons routed by a demultiplexer.
	}
}

// Tick implements node.Automaton.
func (d *Detector) Tick(key string) {
	switch key {
	case timerHeartbeat:
		d.env.SetTimer(timerHeartbeat, d.cfg.eta)
		if d.leader == d.me {
			d.env.Broadcast(LeaderMsg{Epoch: d.counter[d.me]})
		}
	case timerMonitor:
		d.suspectLeader()
	}
}

// suspectLeader handles a monitoring timeout on the current leader.
func (d *Detector) suspectLeader() {
	l := d.leader
	if l == d.me || l == node.None {
		return // stale timer; nothing to accuse
	}
	epoch := d.counter[l]
	if d.cfg.accuseMsgs {
		d.env.Send(l, AccuseMsg{Epoch: epoch})
		d.accusationsSent++
	}
	d.counter[l] = epoch + 1
	if d.cfg.timeoutGrowth {
		d.timeout[l] += d.cfg.eta
	}
	d.elect()
	if d.leader != d.me {
		// Keep monitoring whichever process is now believed leader
		// (possibly the same one, with its larger timeout).
		d.env.SetTimer(timerMonitor, d.timeout[d.leader])
	}
}

// best returns argmin over q of (counter[q], q).
func (d *Detector) best() node.ID {
	best := node.ID(0)
	for q := 1; q < d.n; q++ {
		if d.counter[q] < d.counter[best] {
			best = node.ID(q)
		}
	}
	return best
}

// elect recomputes the leader and, on change, updates the history and the
// monitoring machinery.
func (d *Detector) elect() {
	b := d.best()
	if b == d.leader {
		if d.leader == node.None {
			// Unreachable: best always returns a valid id.
			panic("core: elected no-one")
		}
		return
	}
	d.leader = b
	d.hist.Record(d.env.Now(), b)
	d.env.Logf("leader → p%d (counter=%d)", b, d.counter[b])
	if b == d.me {
		d.env.StopTimer(timerMonitor)
		// Announce leadership immediately rather than waiting for the
		// next heartbeat tick; this speeds up convergence and costs
		// only finitely many extra messages.
		d.env.Broadcast(LeaderMsg{Epoch: d.counter[d.me]})
	} else {
		d.env.SetTimer(timerMonitor, d.timeout[b])
	}
}
