// Package alltoall implements the classic all-to-all heartbeat Omega used
// as the paper's "expensive" baseline.
//
// Every alive process broadcasts an ALIVE heartbeat every η and monitors
// every other process with an adaptive timeout; the leader is the smallest
// process id not currently suspected. The algorithm implements Omega when
// all links between correct processes are eventually timely (the strong
// assumption the paper wants to relax), and it is maximally expensive in
// the paper's metric: all n alive processes send forever, using n(n−1)
// links — compare experiment E1/E5 against internal/core.
package alltoall

import (
	"fmt"
	"time"

	"repro/internal/detector"
	"repro/internal/node"
	"repro/internal/obs"
)

// KindAlive tags heartbeat broadcasts.
const KindAlive = "ALIVE"

// kindAliveID is interned once so the per-η broadcast never hashes a string.
var kindAliveID = obs.Intern(KindAlive)

// AliveMsg is the periodic heartbeat.
type AliveMsg struct{}

// KindID implements node.Message.
func (AliveMsg) KindID() obs.Kind { return kindAliveID }

const timerHeartbeat = "alltoall/hb"

// Config parameterizes the detector. Zero values select defaults.
type Config struct {
	// Eta is the heartbeat period (default 10ms). The initial suspicion
	// timeout is 3·Eta, and each false suspicion adds Eta to it.
	Eta time.Duration
}

func (c *Config) fill() {
	if c.Eta <= 0 {
		c.Eta = 10 * time.Millisecond
	}
}

// Detector is the all-to-all heartbeat Omega automaton for one process.
type Detector struct {
	cfg  Config
	env  node.Env
	me   node.ID
	n    int
	hist *detector.History

	suspected []bool
	timeout   []time.Duration
	monKey    []string // monKey[q] names q's monitor timer, built at Start
	leader    node.ID
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

// Suspected reports whether q is currently suspected (test hook).
func (d *Detector) Suspected(q node.ID) bool { return d.suspected[q] }

// Start implements node.Automaton.
func (d *Detector) Start(env node.Env) {
	d.env = env
	d.me = env.ID()
	d.n = env.N()
	d.suspected = make([]bool, d.n)
	d.timeout = make([]time.Duration, d.n)
	d.monKey = make([]string, d.n)
	for q := 0; q < d.n; q++ {
		d.timeout[q] = 3 * d.cfg.Eta
		d.monKey[q] = fmt.Sprintf("alltoall/mon/%d", q)
		if node.ID(q) != d.me {
			env.SetTimer(d.monKey[q], d.timeout[q])
		}
	}
	d.elect()
	env.SetTimer(timerHeartbeat, d.cfg.Eta)
	env.Broadcast(AliveMsg{})
}

// Deliver implements node.Automaton.
func (d *Detector) Deliver(from node.ID, m node.Message) {
	if _, ok := m.(AliveMsg); !ok {
		return
	}
	if d.suspected[from] {
		// False suspicion: forgive and widen the timeout so the same
		// mistake eventually stops happening.
		d.suspected[from] = false
		d.timeout[from] += d.cfg.Eta
	}
	d.env.SetTimer(d.monKey[from], d.timeout[from])
	d.elect()
}

// Tick implements node.Automaton.
func (d *Detector) Tick(key string) {
	if key == timerHeartbeat {
		d.env.SetTimer(timerHeartbeat, d.cfg.Eta)
		d.env.Broadcast(AliveMsg{})
		return
	}
	for q, k := range d.monKey {
		if k == key {
			d.suspected[q] = true
			d.elect()
			return
		}
	}
}

// elect sets the leader to the smallest unsuspected id (the local process
// never suspects itself).
func (d *Detector) elect() {
	leader := d.me
	for q := 0; q < d.n; q++ {
		if !d.suspected[q] && node.ID(q) < leader {
			leader = node.ID(q)
			break
		}
	}
	if leader == d.leader {
		return
	}
	d.leader = leader
	d.hist.Record(d.env.Now(), leader)
	d.env.Logf("leader → p%d", leader)
}
