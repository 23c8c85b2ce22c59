// Package source implements the gossiped-accusation-counter Omega of the
// PODC 2003 companion paper ("On implementing Ω with weak reliability and
// synchrony assumptions"), used here as the weak-assumption baseline.
//
// Every alive process broadcasts, every η, an ALIVE message carrying its
// whole accusation-counter vector; counters merge by component-wise max.
// Each process monitors every other with an adaptive timeout and bumps the
// counter of a process that times out. The leader is argmin (counter, id).
//
// Compared with internal/core, this algorithm tolerates much weaker links —
// fair-lossy everywhere, as long as one correct process is an eventually
// timely source (its counter then stabilizes while every faulty or
// partitioned process's counter grows without bound, and continuous gossip
// equalizes stabilized entries) — but it is maximally expensive: all alive
// processes broadcast forever, Θ(n²) messages per η (experiments E1, E8).
package source

import (
	"fmt"
	"time"

	"repro/internal/detector"
	"repro/internal/node"
	"repro/internal/obs"
)

// KindAlive tags the counter-carrying heartbeat.
const KindAlive = "ALIVE-V"

// kindAliveID is interned once so the per-η broadcast never hashes a string.
var kindAliveID = obs.Intern(KindAlive)

// AliveMsg is the periodic heartbeat carrying the sender's accusation
// counter vector. The slice is copied at construction and must not be
// mutated afterwards.
type AliveMsg struct {
	Counters []uint64
}

// KindID implements node.Message.
func (AliveMsg) KindID() obs.Kind { return kindAliveID }

// NewAliveMsg builds a heartbeat with a defensive copy of counters.
func NewAliveMsg(counters []uint64) AliveMsg {
	c := make([]uint64, len(counters))
	copy(c, counters)
	return AliveMsg{Counters: c}
}

const timerHeartbeat = "source/hb"

// Config parameterizes the detector. Zero values select defaults.
type Config struct {
	// Eta is the heartbeat period (default 10ms). The initial suspicion
	// timeout is 3·Eta, and each suspicion adds Eta to it.
	Eta time.Duration
}

func (c *Config) fill() {
	if c.Eta <= 0 {
		c.Eta = 10 * time.Millisecond
	}
}

// Detector is the gossiped-counter Omega automaton for one process.
type Detector struct {
	cfg  Config
	env  node.Env
	me   node.ID
	n    int
	hist *detector.History

	counter []uint64
	timeout []time.Duration
	monKey  []string // monKey[q] names q's monitor timer, built at Start
	leader  node.ID
}

var _ detector.Omega = (*Detector)(nil)

// New returns a detector with the given configuration.
func New(cfg Config) *Detector {
	cfg.fill()
	return &Detector{cfg: cfg, hist: detector.NewHistory(), leader: node.None}
}

// Leader implements detector.Omega.
func (d *Detector) Leader() node.ID { return d.leader }

// History implements detector.Omega.
func (d *Detector) History() *detector.History { return d.hist }

// Counter returns the current accusation count for q (test hook).
func (d *Detector) Counter(q node.ID) uint64 { return d.counter[q] }

// Start implements node.Automaton.
func (d *Detector) Start(env node.Env) {
	d.env = env
	d.me = env.ID()
	d.n = env.N()
	d.counter = make([]uint64, d.n)
	d.timeout = make([]time.Duration, d.n)
	d.monKey = make([]string, d.n)
	for q := 0; q < d.n; q++ {
		d.timeout[q] = 3 * d.cfg.Eta
		d.monKey[q] = fmt.Sprintf("source/mon/%d", q)
		if node.ID(q) != d.me {
			env.SetTimer(d.monKey[q], d.timeout[q])
		}
	}
	d.elect()
	env.SetTimer(timerHeartbeat, d.cfg.Eta)
	env.Broadcast(NewAliveMsg(d.counter))
}

// Deliver implements node.Automaton.
func (d *Detector) Deliver(from node.ID, m node.Message) {
	alive, ok := m.(AliveMsg)
	if !ok || len(alive.Counters) != d.n {
		return
	}
	for q, c := range alive.Counters {
		if c > d.counter[q] {
			d.counter[q] = c
		}
	}
	d.env.SetTimer(d.monKey[from], d.timeout[from])
	d.elect()
}

// Tick implements node.Automaton.
func (d *Detector) Tick(key string) {
	if key == timerHeartbeat {
		d.env.SetTimer(timerHeartbeat, d.cfg.Eta)
		d.env.Broadcast(NewAliveMsg(d.counter))
		return
	}
	for q, k := range d.monKey {
		if k == key {
			d.counter[q]++
			d.timeout[q] += d.cfg.Eta
			// Keep monitoring: with fair-lossy links the next heartbeat
			// may be lost too, and an unmonitored process's counter
			// would freeze.
			d.env.SetTimer(k, d.timeout[q])
			d.elect()
			return
		}
	}
}

// elect recomputes argmin (counter, id).
func (d *Detector) elect() {
	best := node.ID(0)
	for q := 1; q < d.n; q++ {
		if d.counter[q] < d.counter[best] {
			best = node.ID(q)
		}
	}
	if best == d.leader {
		return
	}
	d.leader = best
	d.hist.Record(d.env.Now(), best)
	d.env.Logf("leader → p%d (counter=%d)", best, d.counter[best])
}
