package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/faultline"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config parameterizes a live cluster.
type Config struct {
	// N is the number of processes (required, > 1).
	N int
	// Seed drives the in-memory network's delays and the TCP senders'
	// re-dial jitter.
	Seed int64
	// Quiet suppresses per-process logging.
	Quiet bool
	// Observer is an optional extra obs.Sink teed with the cluster's
	// stats; it sees every send/deliver/drop with its wire bytes and trace
	// context, and every process going down (obs.Down) and coming back
	// (obs.Up). Implementations must be safe for concurrent use.
	Observer obs.Sink
	// Fault optionally subjects every link to a faultline.Injector: each
	// send consults the injector for a drop/delay decision, and the
	// injector's crash plan is armed at Start. Injected drops are
	// reported through the cluster's obs.Sink exactly like organic loss.
	// The injector must be built for the same N and must not be shared
	// between clusters (sharing desynchronizes its decision streams).
	Fault *faultline.Injector
	// Rebuild constructs the next incarnation of a rebooting process —
	// typically a fresh automaton recovered from the process's durable
	// store. It is called once per scheduled faultline.Restart reboot,
	// from a timer goroutine, so it must be safe to run concurrently with
	// the rest of the cluster. Required when Fault carries a restart
	// plan; only the in-memory Cluster arms restart plans (the socket
	// transport would need process supervision, not an in-process swap).
	Rebuild func(node.ID) node.Automaton
	// WriteTimeout bounds each TCP write, so a peer that stops reading can
	// never wedge a sender (default 1s).
	WriteTimeout time.Duration
	// SendQueue bounds the frames each TCP link holds unwritten, queued or
	// in a write under way (link.Config.Queue); past it a message is
	// dropped, never blocking the node loop (default 128).
	SendQueue int
	// OnFlush, when set, observes every successful TCP vectored write
	// with its coalesced frame and payload counts (telemetry.FlushHook
	// turns it into obs.Flush events). Runs on sender goroutines; must be
	// safe for concurrent use and cheap.
	OnFlush func(from, to node.ID, frames, bytes int)
}

func (c *Config) fill(automatons int) error {
	if c.N < 2 {
		return fmt.Errorf("transport: N = %d, need at least 2", c.N)
	}
	if automatons != c.N {
		return fmt.Errorf("transport: %d automatons for N=%d", automatons, c.N)
	}
	if c.Fault != nil && c.Fault.N() != c.N {
		return fmt.Errorf("transport: fault injector built for n=%d, cluster has N=%d", c.Fault.N(), c.N)
	}
	if c.Fault != nil && len(c.Fault.Restarts()) > 0 && c.Rebuild == nil {
		return fmt.Errorf("transport: fault plan schedules restarts but Config.Rebuild is nil")
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = time.Second
	}
	if c.SendQueue <= 0 {
		c.SendQueue = 128
	}
	return nil
}

// Cluster runs n automatons on real goroutines connected by an in-memory
// network that serializes every message through the wire codec and delays
// it uniformly over [0, memDelayBound]; loss and extra delay come only from
// Config.Fault.
type Cluster struct {
	table
	cfg Config

	mu       sync.Mutex
	rng      *rand.Rand
	crashers []*time.Timer

	started bool
	stopped bool
}

// NewCluster builds a live in-memory cluster; automatons[i] runs as
// process i.
func NewCluster(cfg Config, automatons []node.Automaton) (*Cluster, error) {
	if err := cfg.fill(len(automatons)); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, rng: sim.NewRand(cfg.Seed)}
	c.build(cfg, automatons, (*memNet)(c))
	return c, nil
}

// Start boots every process — every lane's first turn on the calling
// goroutine (so an OnApply replay while a log restores runs there), then a
// node loop per lane — and arms the fault plan's scheduled crashes. When
// Start returns every detector has its first output and phase 1 is on the
// network.
func (c *Cluster) Start() {
	if c.started {
		return
	}
	c.started = true
	c.run()
	c.mu.Lock()
	c.crashers = scheduleCrashes(c.cfg.Fault, c.Crash)
	c.crashers = append(c.crashers, scheduleRestarts(c.cfg.Fault, c.cfg.Rebuild, c.Crash, c.Restart, c.armTimer)...)
	c.mu.Unlock()
}

// Restart reboots process id with a fresh automaton — the in-process
// equivalent of restarting a kill -9'd process from its durable state.
// A sharded process takes a group.Engine of as many groups. The swap
// happens on each of the process's node loops; the new automaton's Start
// runs under the same single-threaded Env contract as at boot. Safe to
// call from any goroutine.
func (c *Cluster) Restart(id node.ID, a node.Automaton) { c.stations[id].reboot(a) }

// armTimer registers t for cancellation at Stop; when the cluster has
// already stopped it cancels t immediately and reports false.
func (c *Cluster) armTimer(t *time.Timer) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		t.Stop()
		return false
	}
	c.crashers = append(c.crashers, t)
	return true
}

// Inject hands m to the cluster's send path as if process from had sent
// it to process to — the entry point for external clients (tests, the
// chaossoak runner) to drive requests into the cluster. Safe to call from
// any goroutine.
func (c *Cluster) Inject(from, to node.ID, m node.Message) { (*memNet)(c).send(from, to, m) }

// Stop shuts the cluster down and waits for every node loop to exit.
func (c *Cluster) Stop() {
	if c.stopped || !c.started {
		return
	}
	c.mu.Lock()
	c.stopped = true // under mu: armTimer reads it from timer goroutines
	for _, t := range c.crashers {
		t.Stop()
	}
	c.mu.Unlock()
	c.stop()
	c.wg.Wait()
}

// memNet implements sender over the cluster's in-memory links.
type memNet Cluster

// memDelayBound bounds the in-memory network's own per-message delay.
const memDelayBound = 2 * time.Millisecond

func (m *memNet) send(from, to node.ID, msg node.Message) {
	c := (*Cluster)(m)
	now := c.stations[from].Now()
	k := msg.KindID()
	c.sent(now, from, to, k, msg)
	// Serialize immediately: the receiver must observe an independent
	// copy, exactly as over a socket. The buffer is pooled and returned
	// once the receiver has decoded (or the message is dropped).
	bp := encBufs.Get()
	data, err := codec.MarshalAppend((*bp)[:0], msg)
	if err != nil {
		encBufs.Put(bp)
		unframable(msg, err)
		c.sink.OnDrop(now, int(from), int(to), k)
		return
	}
	*bp = data
	c.sink.OnWireBytes(now, int(from), int(to), k, len(data))
	c.mu.Lock()
	delay := time.Duration(c.rng.Int63n(int64(memDelayBound) + 1))
	c.mu.Unlock()
	if c.cfg.Fault != nil {
		extra, ok := c.cfg.Fault.Transmit(from, to, time.Since(c.start))
		if !ok {
			c.sink.OnDrop(now, int(from), int(to), k)
			encBufs.Put(bp)
			return
		}
		delay += extra
	}
	time.AfterFunc(delay, func() {
		decoded, err := codec.Unmarshal(data)
		encBufs.Put(bp) // Unmarshal copies what it keeps
		if err != nil {
			panic(fmt.Sprintf("transport: unmarshal: %v", err))
		}
		c.sink.OnDeliver(c.stations[to].Now(), int(from), int(to), k)
		c.stations[to].deliver(from, decoded)
	})
}
