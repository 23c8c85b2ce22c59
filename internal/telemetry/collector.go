package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/detector/alltoall"
	"repro/internal/detector/source"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
)

// QuiescenceWindow is the sliding window over which link activity is
// judged: a directed link is "active" if it carried a message within the
// window. One second comfortably covers every heartbeat period used in this
// repository while staying short enough that stabilization shows up within
// a couple of scrapes.
const QuiescenceWindow = time.Second

// Series names one of the collector's histograms (see seriesTable).
type Series int

// The histograms, in the order /metrics lists them.
const (
	ElectionDowntime      Series = iota // leader change → next stable leader
	DecisionLatency                     // proposer-side consensus decision latency
	HeartbeatInterarrival               // per-link heartbeat inter-arrival
	FlushFrames                         // frames per vectored write
	FlushBytes                          // payload bytes per vectored write
	WALFsync                            // WAL fsync latency
	WALAppendBytes                      // framed bytes per WAL append
	WALRecovery                         // snapshot-load + replay time per recovery
	numSeries
)

// unit says what a histogram's values are. Histograms are duration-typed;
// a count series records one "nanosecond" per frame or byte — power-of-two
// buckets make that exact — and its exports never rescale to seconds.
type unit uint8

const (
	seconds unit = iota
	count
)

// seriesTable is the one registration of each histogram: name is its
// /metrics family. WritePrometheus walks this table.
var seriesTable = [numSeries]struct {
	name string
	unit unit
}{
	ElectionDowntime:      {"omega_election_downtime_seconds", seconds},
	DecisionLatency:       {"omega_decision_latency_seconds", seconds},
	HeartbeatInterarrival: {"omega_heartbeat_interarrival_seconds", seconds},
	FlushFrames:           {"link_flush_frames", count},
	FlushBytes:            {"link_flush_bytes", count},
	WALFsync:              {"wal_fsync_seconds", seconds},
	WALAppendBytes:        {"wal_append_bytes", count},
	WALRecovery:           {"wal_recovery_seconds", seconds},
}

// LeaseProbe reports one process's read-path state: whether it currently
// holds the leader lease, and its monotone local/fallback read counters.
// The lease gauges are polled state, not events — nothing happens when a
// lease quietly runs out — so they stay probes, polled at scrape time and
// never on a hot path; an implementation backed by atomics
// (rsm.Node.LeaseHeld, LocalReads, FallbackReads) is plenty.
type LeaseProbe func() (held bool, local, fallback uint64)

// Collector aggregates live telemetry for one cluster (or one simulator
// world): latency histograms and election tracking fed from the obs
// stream, plus the steady-state quiescence gauges that assert the paper's
// n−1-links property at runtime.
//
// A Collector is an obs.Sink; tee it into a transport.Config.Observer (or
// a scenario/world observer) so it sees every message and every event the
// runtime emits, and Attach each process's History and Recorder so it
// sees theirs. All methods are safe
// for concurrent use; the per-message path is lock-free.
type Collector struct {
	obs.Nop // sends, drops, bytes, contexts: message counting lives in metrics.MessageStats

	n     int
	stats *metrics.MessageStats
	clock func() sim.Time // the runtime's, attached with stats

	// hbKind marks the message kinds treated as heartbeats for
	// inter-arrival tracking; lastHB holds the previous delivery time per
	// directed link (n*n, flattened, -1 = none yet).
	hbKind [obs.MaxKinds]bool
	lastHB []atomic.Int64

	hists [numSeries]*Histogram

	// mu guards the election tracker and the probe lists. Leader changes
	// are rare (finitely many, after GST) and probes are polled at scrape
	// time; the message path never touches it.
	mu     sync.Mutex
	agree  *obs.Agreement
	probes []LeaseProbe

	stableLeader  atomic.Int64 // current cluster-wide agreed leader, -1 while disputed
	lastElection  atomic.Int64 // sim.Time the current agreement formed, -1 before the first
	elections     atomic.Uint64
	leaderChanges atomic.Uint64
	decides       atomic.Uint64
}

// New returns a collector for an n-process system. Deliveries of the
// repository's heartbeat kinds — core's, alltoall's and source's — feed
// the inter-arrival histogram.
func New(n int) *Collector {
	c := &Collector{
		n:      n,
		lastHB: make([]atomic.Int64, n*n),
		agree:  obs.NewAgreement(n),
	}
	for s := range c.hists {
		c.hists[s] = NewHistogram(n)
	}
	for i := range c.lastHB {
		c.lastHB[i].Store(-1)
	}
	c.stableLeader.Store(-1)
	c.lastElection.Store(-1)
	for _, name := range []string{core.KindLeader, alltoall.KindAlive, source.KindAlive} {
		c.hbKind[obs.Intern(name)] = true
	}
	return c
}

// AttachStats attaches the runtime's message accounting and its clock —
// the one the timestamps reported through the sink are on: a simulated
// world's kernel clock, a TCP cluster's Now. The quiescence gauges
// (active links, non-leader sends) are derived from stats at read time
// and the time since the last election from now; without them the
// gauges read zero and TimeSinceLastElection (0, false). Call during
// setup, before Serve and before the runtime starts.
func (c *Collector) AttachStats(stats *metrics.MessageStats, now func() sim.Time) {
	c.stats, c.clock = stats, now
}

// Probe registers one process's read-path probe. Call during setup,
// before Serve.
func (c *Collector) Probe(p LeaseProbe) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.probes = append(c.probes, p)
}

// --- obs.Sink -----------------------------------------------------------

// OnDeliver implements obs.Sink: deliveries of heartbeat kinds feed the
// per-link inter-arrival histogram. The path is lock-free and performs no
// allocation.
func (c *Collector) OnDeliver(t sim.Time, from, to int, kind obs.Kind) {
	if !c.hbKind[kind] {
		return
	}
	prev := c.lastHB[from*c.n+to].Swap(int64(t))
	if prev >= 0 && int64(t) >= prev {
		c.hists[HeartbeatInterarrival].Record(to, time.Duration(int64(t)-prev))
	}
}

// OnEvent implements obs.Sink: the one place events become series.
// An election's downtime — from the instant cluster-wide agreement broke
// (or time zero, or the crash of the leader) to the instant every live
// process outputs the same live leader again — is obs.Agreement's to
// work out; a decision's latency is known only at the proposing leader
// and zero ("unknown") everywhere else.
func (c *Collector) OnEvent(e obs.Event) {
	switch e.What {
	case obs.LeaderChange, obs.Down, obs.Up:
		c.mu.Lock()
		if downtime, formed := c.agree.Feed(e); formed {
			c.hists[ElectionDowntime].Record(0, downtime)
			c.elections.Add(1)
			c.lastElection.Store(int64(e.T))
		}
		c.leaderChanges.Store(uint64(c.agree.Changes))
		c.stableLeader.Store(int64(c.agree.Leader()))
		c.mu.Unlock()
	case obs.Decide:
		c.decides.Add(1)
		if e.Dur > 0 {
			c.hists[DecisionLatency].Record(e.Proc, e.Dur)
		}
	case obs.Flush:
		c.hists[FlushFrames].Record(e.Proc, time.Duration(e.N))
		c.hists[FlushBytes].Record(e.Proc, time.Duration(e.Bytes))
	case obs.WALAppend:
		c.hists[WALAppendBytes].Record(e.Proc, time.Duration(e.Bytes))
	case obs.WALFsync:
		c.hists[WALFsync].Record(e.Proc, e.Dur)
	case obs.WALRecover:
		c.hists[WALRecovery].Record(e.Proc, e.Dur)
	}
}

// --- gauges ---------------------------------------------------------------

// Leader returns the cluster-wide agreed leader, or (node.None, false)
// while processes disagree.
func (c *Collector) Leader() (node.ID, bool) {
	l := c.stableLeader.Load()
	if l < 0 {
		return node.None, false
	}
	return node.ID(l), true
}

// Elections returns how many times cluster-wide agreement has formed.
// This is the monotone "reign" epoch /healthz reports next to the leader.
func (c *Collector) Elections() uint64 { return c.elections.Load() }

// LeaderChanges returns the total per-process leader-output transitions.
func (c *Collector) LeaderChanges() uint64 { return c.leaderChanges.Load() }

// Decides returns the total decisions observed across attached recorders.
func (c *Collector) Decides() uint64 { return c.decides.Load() }

// TimeSinceLastElection returns how long the current agreement has held,
// or (0, false) if no cluster-wide agreement has formed yet or no clock
// is attached.
func (c *Collector) TimeSinceLastElection() (time.Duration, bool) {
	at := c.lastElection.Load()
	if at < 0 || c.clock == nil {
		return 0, false
	}
	if _, ok := c.Leader(); !ok {
		return 0, false // mid-election: the previous reign is over
	}
	return c.clock().Sub(sim.Time(at)), true
}

// ActiveLinks returns how many distinct directed links carried at least
// one message within the quiescence window — the paper's steady-state
// claim is that this converges to exactly n−1. Zero without AttachStats.
func (c *Collector) ActiveLinks() int {
	if c.stats == nil {
		return 0
	}
	since := c.clock() - sim.Time(QuiescenceWindow)
	if since < 0 {
		since = 0
	}
	return c.stats.LinksUsedSince(since)
}

// NonLeaderSends returns the total messages sent by every process other
// than the current stable leader, excluding the given kinds (pass
// core.KindAccuse to discount accusation traffic). While no stable leader
// exists, every process counts. Zero without AttachStats.
//
// After stabilization this gauge must stop moving: only the leader sends.
func (c *Collector) NonLeaderSends(excludeKinds ...string) uint64 {
	if c.stats == nil {
		return 0
	}
	leader := c.stableLeader.Load()
	var total uint64
	for p := 0; p < c.n; p++ {
		if int64(p) == leader {
			continue
		}
		total += c.stats.SentBy(p)
		for _, kind := range excludeKinds {
			total -= c.stats.SentByKind(p, kind)
		}
	}
	return total
}

// Hist returns the merged snapshot of one series.
func (c *Collector) Hist(s Series) HistSnapshot { return c.hists[s].Snapshot() }

// Lease polls the probes once: how many processes believe they hold the
// leader lease — 0 or 1 when healthy, a sustained 2+ would falsify the
// lease safety argument — and the total reads served locally under a
// lease, with zero consensus messages, and confirmed by a round of grants
// that a majority acked.
func (c *Collector) Lease() (held int, local, fallback uint64) {
	c.mu.Lock()
	probes := c.probes
	c.mu.Unlock()
	for _, p := range probes {
		h, l, f := p()
		if h {
			held++
		}
		local += l
		fallback += f
	}
	return held, local, fallback
}
