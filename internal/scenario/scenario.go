// Package scenario assembles complete experiment setups: a link regime
// (which links are timely, reliable, or lossy), a leader-election
// algorithm, an optional consensus layer over it (the rsm replicated log,
// or the ct baseline alone), a fault schedule (DESIGN.md §10), and seeds.
// It is the one world builder for the test suite, the benchmarks
// (bench_test.go), every experiment (internal/experiments) and the CLI
// (cmd/omegasim); an experiment that needs other links sets them on
// System.World.Fabric before Start.
package scenario

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/check"
	"repro/internal/consensus/ct"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/detector/alltoall"
	"repro/internal/detector/source"
	"repro/internal/faultline"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/relay"
	"repro/internal/sim"
	"repro/internal/tracing"
)

// Algorithm names an Omega implementation.
type Algorithm string

// Available algorithms.
const (
	// AlgoCore is the paper's communication-efficient Omega
	// (internal/core).
	AlgoCore Algorithm = "core"
	// AlgoCoreNoGrowth is the core algorithm without timeout adaptation
	// (ablation).
	AlgoCoreNoGrowth Algorithm = "core-nogrowth"
	// AlgoCoreNoGuard is the core algorithm without the accusation epoch
	// guard (ablation).
	AlgoCoreNoGuard Algorithm = "core-noguard"
	// AlgoCoreNoAccuse is the core algorithm with local-only accusations
	// (ablation).
	AlgoCoreNoAccuse Algorithm = "core-noaccuse"
	// AlgoCoreRelay is the core algorithm behind a flooding relay
	// (internal/relay): eventually timely *paths* suffice.
	AlgoCoreRelay Algorithm = "core-relay"
	// AlgoCoreRebuff is the core algorithm with stale-leader rebuffs
	// (partition-heal robustness extension).
	AlgoCoreRebuff Algorithm = "core-rebuff"
	// AlgoAllToAll is the classic all-to-all heartbeat baseline.
	AlgoAllToAll Algorithm = "alltoall"
	// AlgoSource is the gossiped-counter PODC'03 baseline.
	AlgoSource Algorithm = "source"
)

// Algorithms lists every selectable algorithm.
func Algorithms() []Algorithm {
	return []Algorithm{AlgoCore, AlgoCoreNoGrowth, AlgoCoreNoGuard, AlgoCoreNoAccuse, AlgoCoreRelay, AlgoCoreRebuff, AlgoAllToAll, AlgoSource}
}

// Regime names a link-synchrony configuration.
type Regime string

// Available link regimes.
const (
	// RegimeAllTimely makes every link timely from time zero.
	RegimeAllTimely Regime = "all-timely"
	// RegimeAllET makes every link eventually timely (lossless, wild
	// delays before GST).
	RegimeAllET Regime = "all-et"
	// RegimeSourceReliable gives only the source eventually-timely
	// output links; all other links are reliable with unbounded delays.
	// This is the minimal assumption of the paper's core algorithm.
	RegimeSourceReliable Regime = "source-reliable"
	// RegimeSourceFairLossy gives only the source eventually-timely
	// output links; all other links are fair-lossy. The core algorithm
	// is expected to fail here; the gossiped-counter baseline survives.
	RegimeSourceFairLossy Regime = "source-fairlossy"
	// RegimeLossy makes every link lossy — no Omega algorithm in this
	// repository is expected to stabilize.
	RegimeLossy Regime = "lossy"
	// RegimeTimelyPath provides only an eventually timely *path* from
	// the source to every process (source→hub, hub→everyone, and the
	// reverse), with 90%-lossy links elsewhere. Only relayed algorithms
	// are expected to stabilize here.
	RegimeTimelyPath Regime = "timely-path"
)

// Regimes lists every selectable link regime.
func Regimes() []Regime {
	return []Regime{RegimeAllTimely, RegimeAllET, RegimeSourceReliable, RegimeSourceFairLossy, RegimeLossy, RegimeTimelyPath}
}

// Consensus layers (Config.Consensus).
const (
	// ConsensusRSM runs the replicated log (internal/consensus/rsm) at
	// every process, steered by that process's Omega.
	ConsensusRSM = "rsm"
	// ConsensusCT runs the rotating-coordinator baseline
	// (internal/consensus/ct) alone: it needs no detector, so none is
	// installed.
	ConsensusCT = "ct"
)

// Config fully describes a runnable scenario. Zero values select defaults.
type Config struct {
	N         int
	Seed      int64
	Algorithm Algorithm
	Regime    Regime

	// Eta is the heartbeat period (default 10ms).
	Eta time.Duration
	// Delta is the post-GST delay bound of timely links (default 2ms).
	Delta time.Duration
	// MaxDelay caps asynchronous delays (default 100ms).
	MaxDelay time.Duration
	// DropProb is the loss probability of fair-lossy/lossy links
	// (default 0.3).
	DropProb float64
	// GST is the global stabilization time (default 0).
	GST sim.Time
	// Source is the ◊-source id of the source regimes and the far end of
	// the timely path's chain, taken as given: zero is p0. The experiments
	// set n-1, the process the naive min-id choice would pick last.
	Source node.ID
	// Schedule is the fault schedule. Build arms its cuts, heals and
	// crashes on the world and refuses a restart (the simulator cannot
	// rebuild an automaton from durable state); LiveFaultPlan hands all
	// of it to faultline.
	Schedule faultline.Schedule
	// EnableTrace turns on the event log: System.Trace, a span ring that
	// keeps every message, crash and Logf note of the run.
	EnableTrace bool
	// Observer is an optional extra obs.Sink teed with the world's stats
	// (and the trace); the telemetry layer hooks in here so sim runs feed
	// the same collector live clusters do, by the same path.
	Observer obs.Sink
	// Consensus is the layer over the detector: "" (none), ConsensusRSM
	// or ConsensusCT.
	Consensus string
	// RSM configures every replica when Consensus is ConsensusRSM.
	RSM rsm.Config
}

func (c *Config) fill() error {
	if c.N < 2 {
		return fmt.Errorf("scenario: N = %d, need at least 2", c.N)
	}
	if c.Algorithm == "" {
		c.Algorithm = AlgoCore
	}
	if c.Regime == "" {
		c.Regime = RegimeAllTimely
	}
	if c.Eta <= 0 {
		c.Eta = 10 * time.Millisecond
	}
	if c.Delta <= 0 {
		c.Delta = 2 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 100 * time.Millisecond
	}
	if c.DropProb == 0 {
		c.DropProb = 0.3
	}
	if int(c.Source) < 0 || int(c.Source) >= c.N {
		return fmt.Errorf("scenario: source %d out of range", c.Source)
	}
	if c.Consensus != "" && c.Consensus != ConsensusRSM && c.Consensus != ConsensusCT {
		return fmt.Errorf("scenario: unknown consensus layer %q", c.Consensus)
	}
	return c.Schedule.Validate(c.N)
}

// traceLimit bounds the event log per process. A traced run is one a
// person means to read; this is room for minutes of heartbeats, and the
// ring only grows as it fills.
const traceLimit = 1 << 20

// System is a built, runnable scenario: the world and what runs at each
// process, indexed by id. Omegas is empty under ConsensusCT, Logs is set
// only under ConsensusRSM and CT only under ConsensusCT.
type System struct {
	Config Config
	World  *node.World
	Omegas []detector.Omega
	Logs   []*rsm.Node
	CT     []*ct.Node
	// Trace is the run's event log (tracing.Set.WriteText prints it), nil
	// without Config.EnableTrace.
	Trace *tracing.Set

	booted bool
}

// Build constructs the world, applies the link regime, installs the
// algorithm and the consensus layer at every process, and arms the fault
// schedule. The system is not started; call Start (or Run, which starts
// it on first use).
func Build(cfg Config) (*System, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if cfg.Schedule.Has(faultline.OpRestart) {
		return nil, fmt.Errorf("scenario: restarts are live-cluster only (use LiveFaultPlan); the simulator cannot rebuild an automaton from durable state")
	}
	def, links, err := regimeLinks(cfg)
	if err != nil {
		return nil, err
	}
	var trace *tracing.Set
	observer := cfg.Observer
	if cfg.EnableTrace {
		trace = tracing.New(tracing.Config{Procs: cfg.N, Limit: traceLimit})
		observer = obs.Tee(observer, trace.MessageSink())
	}
	w, err := node.NewWorld(node.WorldConfig{
		N:           cfg.N,
		Seed:        cfg.Seed,
		GST:         cfg.GST,
		DefaultLink: def,
		EnableTrace: cfg.EnableTrace,
		Observer:    observer, // nil with neither: the fabric then reports to the stats alone
	})
	if err != nil {
		return nil, err
	}
	for l, p := range links {
		if err := w.Fabric.SetProfile(int(l.From), int(l.To), p); err != nil {
			return nil, err
		}
	}
	s := &System{Config: cfg, World: w, Trace: trace}
	for i := 0; i < cfg.N; i++ {
		if cfg.Consensus == ConsensusCT {
			s.CT = append(s.CT, ct.New())
			w.SetAutomaton(node.ID(i), s.CT[i])
			continue
		}
		auto, om, err := buildDetector(cfg)
		if err != nil {
			return nil, err
		}
		s.Omegas = append(s.Omegas, om)
		if cfg.Consensus == ConsensusRSM {
			s.Logs = append(s.Logs, rsm.New(om, cfg.RSM))
			auto = node.Compose(auto, s.Logs[i])
		}
		w.SetAutomaton(node.ID(i), auto)
	}
	// One kernel event per schedule event, in schedule order, so that at
	// one instant they fire as written — except a cut or heal at 0, which
	// applies now, before the boot turns send, as it does on a live
	// cluster; a crash at 0 follows the boot turns on both runtimes.
	for _, e := range cfg.Schedule {
		from, to, at := int(e.From), int(e.To), sim.At(e.At)
		link := w.Fabric.Heal
		if e.Op == faultline.OpCut {
			link = w.Fabric.Cut
		}
		switch {
		case e.Op == faultline.OpCrash:
			w.CrashAt(e.From, at)
		case at == 0:
			link(from, to)
		default:
			w.Kernel.ScheduleAt(at, func() { link(from, to) })
		}
	}
	return s, nil
}

// LiveFaultPlan translates a simulator scenario Config into a
// faultline.Plan for the live clusters (internal/transport), so the same
// named regimes and fault schedules drive real sockets. The per-link
// profiles come from the table Build installs (regimeLinks), the
// simulated GST becomes a wall-clock offset from cluster start, and the
// schedule is carried as it is: the injector applies its cuts and heals,
// the cluster arms its crashes and restarts (DESIGN.md §10).
//
// The translation is semantic, not bit-exact: the simulator draws delays
// on a virtual clock while the injector draws them on top of real socket
// latency, so traces differ — but which links are timely, lossy, or down,
// and with what parameters, is the same experiment.
func LiveFaultPlan(cfg Config) (faultline.Plan, error) {
	if err := cfg.fill(); err != nil {
		return faultline.Plan{}, err
	}
	def, links, err := regimeLinks(cfg)
	if err != nil {
		return faultline.Plan{}, err
	}
	return faultline.Plan{
		GST:      time.Duration(cfg.GST),
		Default:  def,
		Links:    links,
		Schedule: slices.Clone(cfg.Schedule),
	}, nil
}

// buildDetector returns the automaton to install and the Omega view to
// observe — they differ when the detector runs behind a relay.
func buildDetector(cfg Config) (node.Automaton, detector.Omega, error) {
	var om detector.Omega
	switch cfg.Algorithm {
	case AlgoCore:
		om = core.New(core.WithEta(cfg.Eta))
	case AlgoCoreNoGrowth:
		om = core.New(core.WithEta(cfg.Eta), core.WithoutTimeoutGrowth())
	case AlgoCoreNoGuard:
		om = core.New(core.WithEta(cfg.Eta), core.WithoutEpochGuard())
	case AlgoCoreNoAccuse:
		om = core.New(core.WithEta(cfg.Eta), core.WithoutAccuseMessages())
	case AlgoCoreRelay:
		d := core.New(core.WithEta(cfg.Eta))
		return relay.Wrap(d), d, nil
	case AlgoCoreRebuff:
		om = core.New(core.WithEta(cfg.Eta), core.WithRebuff())
	case AlgoAllToAll:
		om = alltoall.New(alltoall.Config{Eta: cfg.Eta})
	case AlgoSource:
		om = source.New(source.Config{Eta: cfg.Eta})
	default:
		return nil, nil, fmt.Errorf("scenario: unknown algorithm %q", cfg.Algorithm)
	}
	return om, om, nil
}

// regimeLinks is the one regime table: the profile of every link, and the
// directed links the regime sets apart from it. Build installs it on the
// simulator's fabric, LiveFaultPlan hands it to faultline.
func regimeLinks(cfg Config) (network.Profile, map[faultline.Link]network.Profile, error) {
	links := make(map[faultline.Link]network.Profile)
	set := func(from, to int, p network.Profile) {
		links[faultline.Link{From: node.ID(from), To: node.ID(to)}] = p
	}
	src := int(cfg.Source)
	et := network.EventuallyTimely(cfg.Delta, cfg.MaxDelay, 0)
	var def network.Profile
	switch cfg.Regime {
	case RegimeAllTimely:
		def = network.Timely(cfg.Delta)
	case RegimeAllET:
		def = et
	case RegimeSourceReliable, RegimeSourceFairLossy:
		def = network.Reliable(cfg.Delta, cfg.MaxDelay)
		if cfg.Regime == RegimeSourceFairLossy {
			def = network.FairLossy(cfg.Delta, cfg.MaxDelay, cfg.DropProb)
		}
		for q := 0; q < cfg.N; q++ {
			if q != src {
				set(src, q, et)
			}
		}
	case RegimeLossy:
		def = network.Lossy(cfg.Delta, cfg.MaxDelay, cfg.DropProb)
	case RegimeTimelyPath:
		def = network.FairLossy(cfg.Delta, cfg.MaxDelay, 0.9)
		// Timely chain: source ↔ hub, hub ↔ everyone else.
		hub := (src + cfg.N - 1) % cfg.N
		for q := 0; q < cfg.N; q++ {
			if q != hub {
				set(hub, q, network.Timely(cfg.Delta))
				set(q, hub, network.Timely(cfg.Delta))
			}
		}
	default:
		return def, nil, fmt.Errorf("scenario: unknown regime %q", cfg.Regime)
	}
	return def, links, nil
}

// Start boots the system.
func (s *System) Start() {
	if s.booted {
		return
	}
	s.booted = true
	s.World.Start()
}

// Run starts the system if needed and advances it by d.
func (s *System) Run(d time.Duration) {
	s.Start()
	s.World.RunFor(d)
}

// RunTo starts the system if needed, runs it to t (events at t included,
// as Run does) and returns how many messages were sent before t: a message
// window's count at one of its edges. The count is read with the clock at
// t−1ns, where the kernel has fired every event before t and none at it.
// It panics if the clock is already at t or past it.
func (s *System) RunTo(t sim.Time) (sentBefore uint64) {
	if t <= s.World.Kernel.Now() {
		panic(fmt.Sprintf("scenario: RunTo(%v) with the clock at %v", t, s.World.Kernel.Now()))
	}
	s.Start()
	s.World.RunUntil(t-1, nil)
	sentBefore = s.World.Stats.TotalSent()
	s.World.RunUntil(t, nil)
	return sentBefore
}

// RunWindow runs the system to to and returns how many messages were
// sent in [from, to): a send at from counts, one at to does not.
func (s *System) RunWindow(from, to sim.Time) uint64 {
	before := s.RunTo(from)
	return s.RunTo(to) - before
}

// OmegaInput packages the run for the property checkers.
func (s *System) OmegaInput() check.OmegaInput {
	histories := make([]*detector.History, len(s.Omegas))
	for i, om := range s.Omegas {
		histories[i] = om.History()
	}
	crashed := make(map[node.ID]sim.Time)
	for i := range s.Omegas {
		if at, ok := s.World.CrashedAt(node.ID(i)); ok {
			crashed[node.ID(i)] = at
		}
	}
	return check.OmegaInput{
		Histories: histories,
		Crashed:   crashed,
		Horizon:   s.World.Kernel.Now(),
	}
}

// OmegaReport runs the Omega checker on the current state.
func (s *System) OmegaReport() check.OmegaReport {
	return check.Omega(s.OmegaInput())
}

// CommEffReport runs the communication-efficiency checker over the tail
// window [checkFrom, now), given the msgs sent in it (RunWindow's count).
func (s *System) CommEffReport(checkFrom sim.Time, msgs uint64) check.CommEffReport {
	rep := s.OmegaReport()
	leader := rep.Leader
	if leader == node.None {
		leader = 0
	}
	return check.CommEff(s.World.Stats, leader, checkFrom, s.World.Kernel.Now(), s.Config.Eta, msgs)
}

// Leaders returns each process's current output.
func (s *System) Leaders() []node.ID {
	out := make([]node.ID, len(s.Omegas))
	for i, om := range s.Omegas {
		out[i] = om.Leader()
	}
	return out
}
