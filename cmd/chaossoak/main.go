// Command chaossoak runs a live cluster — real TCP sockets on loopback,
// or the in-process mem transport — under a scripted fault
// plan: seeded per-link chaos, scheduled leader crashes, runtime
// partitions and heals. It drives replicated-state-machine traffic
// through the surviving majority and verifies, at the end, that leader
// election converged and that no consensus instance ever decided two
// values.
//
// Usage examples:
//
//	chaossoak -plan full -n 5 -seed 42
//	chaossoak -transport tcp -plan crash -n 3
//	chaossoak -plan chaos -gst 2s -bound 30s
//	chaossoak -transport mem -plan recovery -n 3 -fsync group
//	chaossoak -transport mem -plan recovery -n 3 -groups 4
//
// The recovery plan is the kill -9 drill: every replica journals its
// consensus state through internal/durable, the leader is killed mid
// batch, the survivors keep deciding, and the dead process is rebuilt
// from its WAL directory. It must rejoin, catch up on what it missed,
// and regain proposer eligibility — then the run re-reads the WAL
// directories offline and cross-checks them against the in-memory
// decision logs (replay equivalence).
//
// With -groups G the recovery drill shards every process into G
// consensus groups (internal/consensus/group), each journaling to its
// own WAL directory (walroot/p<i>/g<g>). The killed replica hosts all G
// groups at once — the rebuild must reopen every one of its G WALs, and
// the offline replay check runs per group.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/group"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/faultline"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tracing"
	"repro/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// cluster is the transport surface the soak drives; both live clusters
// satisfy it.
type cluster interface {
	Start()
	Stop()
	Crash(node.ID)
	Inject(from, to node.ID, m node.Message)
	Stats() *metrics.MessageStats
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("chaossoak", flag.ContinueOnError)
	var (
		transportName = fs.String("transport", "tcp", "live transport: mem, tcp")
		n             = fs.Int("n", 5, "number of processes (full/partition plans need n >= 5 for quorum math)")
		seed          = fs.Int64("seed", 42, "fault-injection seed (same seed + plan = same drop/delay decisions)")
		eta           = fs.Duration("eta", 5*time.Millisecond, "heartbeat period η")
		planName      = fs.String("plan", "full", "fault plan: crash, partition, chaos, full, recovery")
		gst           = fs.Duration("gst", 1500*time.Millisecond, "global stabilization time for the chaos plan")
		bound         = fs.Duration("bound", 30*time.Second, "per-phase convergence bound")
		commands      = fs.Int("commands", 5, "consensus instances to commit per traffic phase")
		drop          = fs.Float64("drop", 0.4, "pre-GST drop probability for the chaos plan")
		metricsAddr   = fs.String("metrics-addr", "", "serve /metrics, /healthz and pprof on this address (e.g. :8080)")
		snapshotJSON  = fs.String("snapshot-json", "", "write the final merged metrics+histogram snapshot to this path")
		traceTail     = fs.Int("trace-tail", 0, "record message events in a bounded ring and print the last N at exit")
		traceTailOut  = fs.String("trace-tail-out", "", "with -trace-tail, also write the tail to this file (parent directories are created)")
		traceDir      = fs.String("trace-dir", "", "record causal spans and write flight-recorder dumps (plus a final dump) into this directory; feed it to traceview")
		traceSample   = fs.Int("trace-sample", 1, "with -trace-dir, sample one in this many client requests")
		lease         = fs.Duration("lease", 0, "leader read lease; 0 disables (leases trade failover latency for local reads, so chaos plans default off)")
		fsyncName     = fs.String("fsync", "group", "WAL fsync policy for the recovery plan: always, group, off")
		walDir        = fs.String("wal-dir", "", "WAL root for the recovery plan (default: a fresh temp dir, removed on success)")
		snapEvery     = fs.Int("snapshot-every", 8, "checkpoint the WAL every this many applied commands in the recovery plan")
		groupsFlag    = fs.Int("groups", 0, "shard the recovery plan into this many consensus groups, one WAL dir per group (0 = unsharded)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *groupsFlag < 0 {
		return fmt.Errorf("-groups %d must be >= 0", *groupsFlag)
	}
	if *groupsFlag > 0 && *planName != "recovery" {
		return fmt.Errorf("-groups needs -plan recovery (sharded soaking is the durable multi-group drill)")
	}

	s := &soak{eta: *eta, bound: *bound, commands: *commands, lease: *lease, groups: *groupsFlag}
	switch *planName {
	case "recovery":
		if *transportName != "mem" {
			return fmt.Errorf("plan recovery needs -transport mem (restart is an in-process rebuild)")
		}
		if *n < 3 {
			return fmt.Errorf("plan recovery needs n >= 3, got %d", *n)
		}
		switch *fsyncName {
		case "always":
			s.sync = durable.SyncAlways
		case "group":
			s.sync = durable.SyncGroup
		case "off":
			s.sync = durable.SyncOff
		default:
			return fmt.Errorf("unknown fsync policy %q (want always, group, off)", *fsyncName)
		}
		s.walRoot = *walDir
		if s.walRoot == "" {
			dir, err := os.MkdirTemp("", "chaossoak-wal-")
			if err != nil {
				return err
			}
			s.walRoot = dir
			defer func() {
				if err == nil {
					os.RemoveAll(dir)
				}
			}()
		}
		s.snapEvery = *snapEvery
		s.inj, err = faultline.New(*n, *seed, faultline.Plan{})
		if err != nil {
			return err
		}
	case "crash", "partition", "full":
		if *n < 3 {
			return fmt.Errorf("plan %s needs n >= 3, got %d", *planName, *n)
		}
		if (*planName == "partition" || *planName == "full") && *n < 5 {
			return fmt.Errorf("plan %s needs n >= 5 (crash + minority cut must leave a quorum), got %d", *planName, *n)
		}
		inj, err := faultline.New(*n, *seed, faultline.Plan{})
		if err != nil {
			return err
		}
		s.inj = inj
	case "chaos":
		// Pre-GST chaos via the scenario bridge: the simulator's all-et
		// regime, replayed on live sockets. The simulated regime is
		// lossless (wild delays only), so layer pre-GST loss on top — the
		// combination the soak tests exercise.
		plan, err := scenario.LiveFaultPlan(scenario.Config{
			N:      *n,
			Regime: scenario.RegimeAllET,
			Delta:  2 * time.Millisecond,
			Eta:    *eta,
			GST:    sim.At(*gst),
		})
		if err != nil {
			return err
		}
		if *drop > 0 {
			plan.Default = network.EventuallyTimely(2*time.Millisecond, 30*time.Millisecond, *drop)
		}
		inj, err := faultline.New(*n, *seed, plan)
		if err != nil {
			return err
		}
		s.inj = inj
	default:
		return fmt.Errorf("unknown plan %q (want crash, partition, chaos, full)", *planName)
	}

	// The observer: the collector, the flight recorder and the event-log
	// tail are three subscribers of the one sink the cluster, the WALs and
	// every replica's History and Recorder report into.
	tel := telemetry.New(*n)
	s.tel = tel
	if *traceDir != "" {
		// The flight recorder: spans from every layer land in per-process
		// rings; anomalies (leader changes, crashes, fallback reads, slow
		// fsyncs, drops) snapshot them into trace-*.json dumps.
		s.tset = tracing.New(tracing.Config{Procs: *n, Dir: *traceDir, SampleEvery: *traceSample})
	}
	var tail *tracing.Set
	if *traceTail > 0 {
		tail = tracing.New(tracing.Config{Procs: *n, Limit: *traceTail})
	}
	s.observer = obs.Tee(tel, s.tset.Sink(), tail.MessageSink())
	var autos []node.Automaton
	if s.groups > 0 {
		autos, err = s.buildGroupReplicas(*n)
	} else {
		autos, err = s.buildReplicas(*n)
	}
	if err != nil {
		return err
	}
	cfg := transport.Config{
		N: *n, Seed: *seed, Quiet: true, Fault: s.inj,
		WriteTimeout: 200 * time.Millisecond, Observer: s.observer,
		OnFlush: telemetry.FlushHook(s.observer),
	}
	var c cluster
	switch *transportName {
	case "mem":
		c, err = transport.NewCluster(cfg, autos)
	case "tcp":
		c, err = transport.NewTCPCluster(cfg, autos)
	default:
		return fmt.Errorf("unknown transport %q (want mem, tcp)", *transportName)
	}
	if err != nil {
		return err
	}
	s.c = c
	if *planName == "recovery" {
		s.memc = c.(*transport.Cluster)
	}
	// Anchor trace timestamps to the cluster clock's zero (set at
	// construction just above) so span offsets and telemetry wall times
	// merge on the same axis.
	s.tset.SetWallStart(time.Now())
	tail.SetWallStart(time.Now())
	tel.AttachStats(c.Stats())
	// Omega watching stays unsharded-only: each group's detectors speak a
	// rotated logical id space, so the cluster-wide leader gauge would read
	// garbage. Sharded runs get per-group labeled series instead.
	for i := range s.logs {
		s.attach(node.ID(i))
	}
	for i := range s.glogs {
		s.attachGroups(node.ID(i))
	}
	if *metricsAddr != "" {
		var opts []telemetry.ServeOption
		if s.tset != nil {
			opts = append(opts, telemetry.WithTraceSource(s.tset.WriteJSON))
		}
		srv, err := telemetry.Serve(*metricsAddr, tel, opts...)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("telemetry: serving /metrics, /healthz, /debug/pprof on http://%s\n", srv.Addr())
	}
	c.Start()
	defer c.Stop()

	fmt.Printf("chaossoak: transport=%s plan=%s n=%d seed=%d eta=%v\n", *transportName, *planName, *n, *seed, *eta)
	switch *planName {
	case "crash":
		err = s.runCrash()
	case "partition":
		err = s.runPartition(false)
	case "chaos":
		err = s.runChaos(*gst)
	case "full":
		err = s.runPartition(true)
	case "recovery":
		if s.groups > 0 {
			err = s.runGroupRecovery()
		} else {
			err = s.runRecovery()
		}
	}
	if err != nil {
		return err
	}
	if s.groups > 0 {
		err = s.checkGroupSafety()
	} else {
		err = s.checkSafety()
	}
	if err != nil {
		return err
	}
	if *planName == "recovery" {
		// Quiesce before re-reading the WAL directories offline: an open
		// on a live, appending log would race the node loops.
		c.Stop()
		if s.groups > 0 {
			err = s.checkGroupReplayEquivalence()
		} else {
			err = s.checkReplayEquivalence()
		}
		if err != nil {
			return err
		}
	}
	st := c.Stats()
	fmt.Printf("traffic:   sent=%d delivered=%d dropped=%d\n", st.TotalSent(), st.Delivered(), st.Dropped())
	if down := tel.Hist(telemetry.ElectionDowntime); down.Count > 0 {
		fmt.Printf("telemetry: elections=%d downtime p50=%v max=%v decide p99=%v hb-gap p99=%v\n",
			tel.Elections(), down.Quantile(0.5), down.Max,
			tel.Hist(telemetry.DecisionLatency).Quantile(0.99), tel.Hist(telemetry.HeartbeatInterarrival).Quantile(0.99))
	}
	if appends := tel.Hist(telemetry.WALAppendBytes); appends.Count > 0 {
		fsync := tel.Hist(telemetry.WALFsync)
		fmt.Printf("durability: wal appends=%d bytes=%d fsyncs=%d fsync p99=%v recovery max=%v\n",
			appends.Count, int64(appends.Sum), fsync.Count, fsync.Quantile(0.99), tel.Hist(telemetry.WALRecovery).Max)
	}
	if tail != nil {
		fmt.Printf("trace:     the event log's tail (-trace-tail %d)\n", *traceTail)
		if err := tail.WriteText(os.Stdout, *traceTail, true); err != nil {
			return err
		}
		if *traceTailOut != "" {
			if dir := filepath.Dir(*traceTailOut); dir != "." {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					return fmt.Errorf("create -trace-tail-out directory %s: %w", dir, err)
				}
			}
			f, err := os.Create(*traceTailOut)
			if err != nil {
				return fmt.Errorf("write -trace-tail-out %s: %w", *traceTailOut, err)
			}
			werr := tail.WriteText(f, *traceTail, true)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return fmt.Errorf("write -trace-tail-out %s: %w", *traceTailOut, werr)
			}
			fmt.Printf("trace:     wrote %s\n", *traceTailOut)
		}
	}
	if *snapshotJSON != "" {
		if dir := filepath.Dir(*snapshotJSON); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return fmt.Errorf("create -snapshot-json directory %s: %w", dir, err)
			}
		}
		if err := tel.WriteJSON(*snapshotJSON); err != nil {
			return fmt.Errorf("write -snapshot-json %s: %w", *snapshotJSON, err)
		}
		fmt.Printf("snapshot:  wrote %s\n", *snapshotJSON)
	}
	if s.tset != nil {
		path, err := s.tset.Final()
		if err != nil {
			return err
		}
		fmt.Printf("tracing:   %d anomaly dumps; final dump %s\n", s.tset.Triggered(), path)
	}
	fmt.Println("verdict:   PASS — single leader converged, consensus safety holds")
	return nil
}

// soak holds the replicas and fault handles for one run.
type soak struct {
	eta      time.Duration
	bound    time.Duration
	lease    time.Duration
	commands int
	inj      *faultline.Injector
	c        cluster
	memc     *transport.Cluster // recovery plan only: restart needs the mem cluster
	tel      *telemetry.Collector
	tset     *tracing.Set // nil without -trace-dir; every method no-ops then
	observer obs.Sink     // what the cluster reports into: tel, tset, the -trace-tail ring
	dets     []*core.Detector
	logs     []*rsm.Node

	// Sharded recovery (-groups > 0): the [process][group] detector/log
	// matrices; dets and logs stay nil.
	groups int
	gdets  [][]*core.Detector
	glogs  [][]*rsm.Node

	// Durability wiring, recovery plan only.
	walRoot   string
	sync      durable.SyncPolicy
	snapEvery int
	stores    []*durable.WAL   // per process; unsharded runs
	gstores   [][]*durable.WAL // [process][group]; sharded runs
	recovered node.ID          // the process killed and rebuilt from disk
}

// attach subscribes the observer to replica id's current incarnation: its
// detector's output, its log's decisions, its read path.
func (s *soak) attach(id node.ID) {
	l := s.logs[id]
	telemetry.Attach(s.observer, s.tel, obs.NoGroup, telemetry.Process{
		ID: id, History: s.dets[id].History(), Recorder: l.Recorder(),
		Lease: func() (bool, uint64, uint64) { return l.LeaseHeld(), l.LocalReads(), l.FallbackReads() },
	})
}

// attachGroups does the same for each group of sharded replica id.
func (s *soak) attachGroups(id node.ID) {
	for g, l := range s.glogs[id] {
		telemetry.Attach(s.observer, s.tel, g, telemetry.Process{ID: id, Recorder: l.Recorder()})
	}
}

// walOptions are the durable.Options of one of replica i's logs.
func (s *soak) walOptions(i int) durable.Options {
	opts := durable.Options{Sync: s.sync}
	opts.OnAppend, opts.OnFsync, opts.OnRecover = telemetry.WALHooks(s.observer, node.ID(i), s.tset.Stamp)
	return opts
}

// buildReplicas composes one rebuff-hardened detector plus a replicated
// log per process. Rebuff matters here: chaos plans lose accusations,
// and the base algorithm (built for reliable links) can deadlock after a
// heal with every process electing itself.
func (s *soak) buildReplicas(n int) ([]node.Automaton, error) {
	autos := make([]node.Automaton, n)
	s.dets = make([]*core.Detector, n)
	s.logs = make([]*rsm.Node, n)
	if s.walRoot != "" {
		s.stores = make([]*durable.WAL, n)
	}
	for i := 0; i < n; i++ {
		auto, err := s.buildReplica(i)
		if err != nil {
			return nil, err
		}
		autos[i] = auto
	}
	return autos, nil
}

// buildReplica composes one detector+log pair, journaling through the
// process's WAL directory when the recovery plan is active. It is also
// the rebuild path: reopening the same directory recovers everything the
// previous incarnation persisted.
func (s *soak) buildReplica(i int) (node.Automaton, error) {
	cfg := rsm.Config{DriveInterval: 2 * s.eta, Lease: s.lease, Tracer: s.tset.Tracer(i)}
	var al *appliedLog
	if s.stores != nil {
		w, err := durable.Open(s.walPath(node.ID(i)), s.walOptions(i))
		if err != nil {
			return nil, err
		}
		s.stores[i] = w
		cfg.Store = w
		cfg.SnapshotEvery = s.snapEvery
		// The "application" here is the applied command sequence itself:
		// snapshots absorb it, restarts restore it, and the offline
		// replay-equivalence check re-derives it from the WAL alone.
		al = &appliedLog{}
		cfg.SnapshotState = al.snapshot
		cfg.RestoreState = al.restore
	}
	s.dets[i] = core.New(core.WithEta(s.eta), core.WithRebuff())
	s.logs[i] = rsm.New(s.dets[i], cfg)
	if al != nil {
		s.logs[i].OnApply(func(inst, cmd int, v consensus.Value) { al.cmds = append(al.cmds, string(v)) })
	}
	return node.Compose(s.dets[i], s.logs[i]), nil
}

// appliedLog is one incarnation's applied command sequence; all methods
// run on the node loop (SnapshotState, RestoreState, OnApply), so no
// locking is needed.
type appliedLog struct{ cmds []string }

func (a *appliedLog) snapshot() []byte { return []byte(strings.Join(a.cmds, appliedSep)) }
func (a *appliedLog) restore(b []byte) {
	if len(b) > 0 {
		a.cmds = strings.Split(string(b), appliedSep)
	}
}

// appliedSep separates commands in the snapshot payload; no command in
// this soak (or gap-fill no-op) contains a unit separator.
const appliedSep = "\x1f"

func (s *soak) walPath(id node.ID) string {
	return filepath.Join(s.walRoot, fmt.Sprintf("p%d", id))
}

// groupWALPath is group g's journal directory on process id: each group
// in a sharded replica recovers independently, so each gets its own WAL.
func (s *soak) groupWALPath(id node.ID, g int) string {
	return filepath.Join(s.walPath(id), fmt.Sprintf("g%d", g))
}

// buildGroupReplicas builds the sharded fleet: s.groups detector+log
// pairs per process, which the cluster runs on a node loop each, each pair
// journaling to its own WAL directory.
func (s *soak) buildGroupReplicas(n int) ([]node.Automaton, error) {
	autos := make([]node.Automaton, n)
	s.gdets = make([][]*core.Detector, n)
	s.glogs = make([][]*rsm.Node, n)
	s.gstores = make([][]*durable.WAL, n)
	for i := 0; i < n; i++ {
		auto, err := s.buildGroupReplica(i)
		if err != nil {
			return nil, err
		}
		autos[i] = auto
	}
	return autos, nil
}

// buildGroupReplica composes one sharded process, opening (or, on the
// restart path, reopening) all of its per-group WAL directories. Build
// runs synchronously inside group.New, so WAL open errors are carried out
// through the closure.
func (s *soak) buildGroupReplica(i int) (node.Automaton, error) {
	s.gdets[i] = make([]*core.Detector, s.groups)
	s.glogs[i] = make([]*rsm.Node, s.groups)
	s.gstores[i] = make([]*durable.WAL, s.groups)
	var buildErr error
	eng := group.New(group.Config{
		Groups: s.groups,
		Build: func(g int) node.Automaton {
			cfg := rsm.Config{DriveInterval: 2 * s.eta, Tracer: s.tset.Tracer(i)}
			al := &appliedLog{}
			if w, err := durable.Open(s.groupWALPath(node.ID(i), g), s.walOptions(i)); err != nil {
				buildErr = err
			} else {
				s.gstores[i][g] = w
				cfg.Store = w
				cfg.SnapshotEvery = s.snapEvery
				cfg.SnapshotState = al.snapshot
				cfg.RestoreState = al.restore
			}
			s.gdets[i][g] = core.New(core.WithEta(s.eta), core.WithRebuff())
			s.glogs[i][g] = rsm.New(s.gdets[i][g], cfg)
			s.glogs[i][g].OnApply(func(inst, cmd int, v consensus.Value) { al.cmds = append(al.cmds, string(v)) })
			return node.Compose(s.gdets[i][g], s.glogs[i][g])
		},
	})
	if buildErr != nil {
		return nil, buildErr
	}
	return eng, nil
}

// restartGroup rebuilds sharded process id from its G WAL directories and
// reboots it in place, as restart does an unsharded one.
func (s *soak) restartGroup(id node.ID) error {
	auto, err := s.buildGroupReplica(int(id))
	if err != nil {
		return err
	}
	s.attachGroups(id)
	s.memc.Restart(id, auto)
	return nil
}

// restart rebuilds process id from its WAL directory and reboots it in
// place. The dead incarnation's WAL handle is abandoned unclosed,
// exactly as kill -9 leaves it; recovery reads the directory fresh.
func (s *soak) restart(id node.ID) error {
	auto, err := s.buildReplica(int(id))
	if err != nil {
		return err
	}
	s.attach(id)
	s.memc.Restart(id, auto)
	return nil
}

// agreement reports the common leader among processes not in skip.
func (s *soak) agreement(skip map[int]bool) (node.ID, bool) {
	leader := node.None
	for i, d := range s.dets {
		if skip[i] {
			continue
		}
		l := d.History().Current()
		if leader == node.None {
			leader = l
		} else if l != leader {
			return node.None, false
		}
	}
	return leader, leader != node.None
}

// settledLeader waits until the processes not in skip agree on a leader
// and returns it. Right after a pump the Omegas may be in dispute for an
// instant, and a one-shot agreement would then name node.None.
func (s *soak) settledLeader(skip map[int]bool, what string) (node.ID, error) {
	leader := node.None
	err := s.waitFor(func() (ok bool) { leader, ok = s.agreement(skip); return ok }, what)
	return leader, err
}

// waitFor polls cond until it holds or the phase bound expires.
func (s *soak) waitFor(cond func() bool, what string) error {
	deadline := time.Now().Add(s.bound)
	for time.Now().Before(deadline) {
		if cond() {
			fmt.Printf("phase:     %s ok\n", what)
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("timed out after %v waiting for %s", s.bound, what)
}

// maxCount is the most commands any replica in ps has recorded.
func maxCount(logs []*rsm.Node, ps []int) int {
	most := 0
	for _, p := range ps {
		most = max(most, logs[p].Recorder().Count())
	}
	return most
}

// outageBar is the highest instance among the decisions rec holds from
// its from-th on — with from its Count() at the kill, the decisions the
// survivors took while the victim was down — or -1 when there is none.
func outageBar(rec *consensus.Recorder, from int) int {
	bar := -1
	for _, d := range rec.All()[from:] {
		bar = max(bar, d.Instance)
	}
	return bar
}

// caughtUp reports whether a replica restarted over w holds instance bar:
// recorded since the restart, or absorbed into the snapshot it restarted
// from — its fresh Recorder starts at that horizon and can never Get
// anything below it.
func caughtUp(rec *consensus.Recorder, w *durable.WAL, bar int) bool {
	if st := w.State(); st != nil && bar < int(st.SnapIndex) {
		return true
	}
	_, ok := rec.Get(bar)
	return ok
}

// pump keeps injecting client requests at the current leader until every
// replica in correct has recorded target commands (a restarted replica
// counts from its restart).
func (s *soak) pump(correct []int, prefix string, target int) error {
	i := 0
	return s.waitFor(func() bool {
		if l, ok := s.agreement(skipAllBut(len(s.dets), correct)); ok {
			from := node.ID(correct[0])
			if from == l {
				from = node.ID(correct[1])
			}
			req := node.Message(rsm.RequestMsg{V: consensus.Value(fmt.Sprintf("%s-%d", prefix, i))})
			// Client-side trace ingress: a sampled request carries its
			// context from the injection hop onward.
			if ctx := s.tset.Tracer(int(from)).StartTrace(s.tset.Stamp(), "request"); ctx.Valid() {
				req = tracing.Wrap{Ctx: ctx, Inner: req}
			}
			s.c.Inject(from, l, req)
			i++
		}
		for _, p := range correct {
			if s.logs[p].Recorder().Count() < target {
				return false
			}
		}
		return true
	}, prefix+" consensus progress")
}

func skipAllBut(n int, keep []int) map[int]bool {
	skip := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		skip[i] = true
	}
	for _, p := range keep {
		skip[p] = false
	}
	return skip
}

func ints(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// runCrash commits a batch, crashes the leader, and requires re-election
// plus renewed consensus progress among the survivors.
func (s *soak) runCrash() error {
	n := len(s.dets)
	if err := s.waitFor(func() bool { _, ok := s.agreement(nil); return ok }, "initial agreement"); err != nil {
		return err
	}
	if err := s.pump(ints(0, n), "pre", s.commands); err != nil {
		return err
	}
	leader, err := s.settledLeader(nil, "settled leader to crash")
	if err != nil {
		return err
	}
	s.c.Crash(leader)
	fmt.Printf("fault:     crashed leader p%v\n", leader)
	skip := map[int]bool{int(leader): true}
	survivors := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if node.ID(i) != leader {
			survivors = append(survivors, i)
		}
	}
	if err := s.waitFor(func() bool {
		l, ok := s.agreement(skip)
		return ok && l != leader
	}, "re-election after crash"); err != nil {
		return err
	}
	return s.pump(survivors, "post", 2*s.commands)
}

// runPartition runs the full acceptance script: optional leader crash,
// then a minority cut, majority progress, heal, and convergence.
func (s *soak) runPartition(crashFirst bool) error {
	n := len(s.dets)
	if err := s.waitFor(func() bool { _, ok := s.agreement(nil); return ok }, "initial agreement"); err != nil {
		return err
	}
	if err := s.pump(ints(0, n), "pre", s.commands); err != nil {
		return err
	}
	skip := map[int]bool{}
	correct := ints(0, n)
	if crashFirst {
		s.c.Crash(0)
		fmt.Println("fault:     crashed p0")
		skip[0] = true
		correct = ints(1, n)
		if err := s.waitFor(func() bool {
			l, ok := s.agreement(skip)
			return ok && l != 0
		}, "re-election after crash"); err != nil {
			return err
		}
	}
	// Cut the highest id away from the rest; the majority side keeps a
	// quorum and must keep deciding.
	minority := node.ID(n - 1)
	majority := correct[:len(correct)-1]
	s.inj.Cut([]node.ID{minority}, idsOf(majority))
	fmt.Printf("fault:     cut p%v from %v\n", minority, majority)
	if err := s.waitFor(func() bool {
		l, ok := s.agreement(skipAllBut(n, majority))
		return ok && !skip[int(l)] && l != minority
	}, "majority agreement during partition"); err != nil {
		return err
	}
	if err := s.pump(majority, "cut", s.commands+1); err != nil {
		return err
	}
	s.inj.Heal()
	fmt.Println("fault:     healed all partitions")
	if err := s.waitFor(func() bool {
		l, ok := s.agreement(skip)
		return ok && !skip[int(l)]
	}, "convergence after heal"); err != nil {
		return err
	}
	return s.pump(correct, "post", s.commands+2)
}

// runChaos rides out pre-GST link chaos and requires stabilization — a
// single common leader — once the wall-clock GST has passed.
func (s *soak) runChaos(gst time.Duration) error {
	start := time.Now()
	time.Sleep(gst / 2)
	if s.c.Stats().Dropped() == 0 {
		return fmt.Errorf("pre-GST chaos injected no drops")
	}
	fmt.Printf("fault:     pre-GST chaos dropped %d messages\n", s.c.Stats().Dropped())
	if err := s.waitFor(func() bool {
		_, ok := s.agreement(nil)
		return ok && time.Since(start) > gst
	}, "post-GST stabilization"); err != nil {
		return err
	}
	return s.pump(ints(0, len(s.dets)), "post-gst", s.commands)
}

// runRecovery is the kill -9 drill (mem transport, per-process WALs):
// commit a batch, kill the leader with a burst of requests in flight,
// let the survivors advance, rebuild the dead process from its WAL
// directory, and require it to rejoin, catch up on the outage, and win
// back proposer eligibility before the final safety and replay checks.
func (s *soak) runRecovery() error {
	n := len(s.dets)
	all := ints(0, n)
	if err := s.waitFor(func() bool { _, ok := s.agreement(nil); return ok }, "initial agreement"); err != nil {
		return err
	}
	if err := s.pump(all, "pre", s.commands); err != nil {
		return err
	}
	leader, err := s.settledLeader(nil, "settled leader to kill")
	if err != nil {
		return err
	}
	s.recovered = leader

	// Kill the leader mid-batch: a burst of requests is still in flight
	// when it dies, so its WAL tail holds accepts that may never have
	// reached a quorum — recovery must carry them without inventing
	// decisions.
	from := node.ID(all[0])
	if from == leader {
		from = node.ID(all[1])
	}
	for i := 0; i < s.commands; i++ {
		s.c.Inject(from, leader, rsm.RequestMsg{V: consensus.Value(fmt.Sprintf("burst-%d", i))})
	}
	s.c.Crash(leader)
	fmt.Printf("fault:     killed leader p%v mid-batch\n", leader)

	survivors := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if node.ID(i) != leader {
			survivors = append(survivors, i)
		}
	}
	if err := s.waitFor(func() bool {
		l, ok := s.agreement(map[int]bool{int(leader): true})
		return ok && l != leader
	}, "re-election after kill"); err != nil {
		return err
	}
	// Progress during the outage is relative to where the survivors stood
	// at the kill: the pre pump may have overshot any absolute target, and
	// the outage must decide something for the catch-up to have a bar.
	atKill := s.logs[survivors[0]].Recorder().Count()
	if err := s.pump(survivors, "outage", maxCount(s.logs, survivors)+s.commands); err != nil {
		return err
	}
	// The highest instance the survivors decided while the process was
	// down: the bar its catch-up has to clear.
	outageMax := outageBar(s.logs[survivors[0]].Recorder(), atKill)

	if err := s.restart(leader); err != nil {
		return err
	}
	fmt.Printf("fault:     restarted p%v from %s\n", leader, s.walPath(leader))
	if err := s.waitFor(func() bool { _, ok := s.agreement(nil); return ok }, "convergence after restart"); err != nil {
		return err
	}
	if err := s.waitFor(func() bool {
		return caughtUp(s.logs[leader].Recorder(), s.stores[leader], outageMax)
	}, "restarted replica catch-up"); err != nil {
		return err
	}

	// Proposer eligibility: kill the current leader. If the restarted
	// process already leads again, progress below proves the point
	// directly; otherwise the cluster must keep deciding with the
	// restarted process voting in (and possibly leading) every quorum.
	// The rejoin itself may trigger a leader change.
	second, err := s.settledLeader(nil, "settled leader before second kill")
	if err != nil {
		return err
	}
	correct := all
	if second != leader {
		s.c.Crash(second)
		fmt.Printf("fault:     crashed second leader p%v\n", second)
		correct = make([]int, 0, n-1)
		for i := 0; i < n; i++ {
			if node.ID(i) != second {
				correct = append(correct, i)
			}
		}
		if err := s.waitFor(func() bool {
			l, ok := s.agreement(map[int]bool{int(second): true})
			return ok && l != second
		}, "re-election after second kill"); err != nil {
			return err
		}
	}
	return s.pump(correct, "post", 3*s.commands)
}

// groupAgreement reports the common leader of group g — in the group's
// logical id space — among processes not in skip.
func (s *soak) groupAgreement(g int, skip map[int]bool) (node.ID, bool) {
	leader := node.None
	for i := range s.gdets {
		if skip[i] {
			continue
		}
		l := s.gdets[i][g].History().Current()
		if leader == node.None {
			leader = l
		} else if l != leader {
			return node.None, false
		}
	}
	return leader, leader != node.None
}

// allGroupsAgree returns every group's agreed logical leader, or nil if
// any group is still in dispute among the processes not in skip.
func (s *soak) allGroupsAgree(skip map[int]bool) []node.ID {
	leaders := make([]node.ID, s.groups)
	for g := 0; g < s.groups; g++ {
		l, ok := s.groupAgreement(g, skip)
		if !ok {
			return nil
		}
		leaders[g] = l
	}
	return leaders
}

// groupPump keeps injecting client requests at every group's current
// physical leader until each replica in correct has recorded target
// commands in every group.
func (s *soak) groupPump(correct []int, prefix string, target int) error {
	n := len(s.gdets)
	skip := skipAllBut(n, correct)
	counters := make([]int, s.groups)
	return s.waitFor(func() bool {
		for g := 0; g < s.groups; g++ {
			l, ok := s.groupAgreement(g, skip)
			if !ok {
				continue
			}
			phys := group.Physical(l, g, n)
			if skip[int(phys)] {
				continue // this group's leader is outside the correct set
			}
			from := node.ID(correct[0])
			if from == phys {
				from = node.ID(correct[1])
			}
			s.c.Inject(from, phys, group.Wrap(g, rsm.RequestMsg{V: consensus.Value(fmt.Sprintf("%s-g%d-%d", prefix, g, counters[g]))}))
			counters[g]++
		}
		for _, p := range correct {
			for g := 0; g < s.groups; g++ {
				if s.glogs[p][g].Recorder().Count() < target {
					return false
				}
			}
		}
		return true
	}, prefix+" sharded consensus progress")
}

// runGroupRecovery is the sharded kill -9 drill: commit a batch in every
// group, kill the process that leads group 0 — it hosts all G groups, so
// G WAL directories die with it and G-1 other groups lose a follower —
// with bursts in flight in every group it led, let the survivors advance
// everywhere, rebuild the dead process from all G of its WALs at once,
// and require per-group catch-up before the per-group safety and replay
// checks.
func (s *soak) runGroupRecovery() error {
	n := len(s.gdets)
	all := ints(0, n)
	if err := s.waitFor(func() bool { return s.allGroupsAgree(nil) != nil }, "initial agreement in every group"); err != nil {
		return err
	}
	if err := s.groupPump(all, "pre", s.commands); err != nil {
		return err
	}

	// The pump may have left group 0 in dispute for an instant: the
	// victim is whoever it next agrees on.
	var l0 node.ID
	if err := s.waitFor(func() (ok bool) { l0, ok = s.groupAgreement(0, nil); return ok }, "group 0 leader to kill"); err != nil {
		return err
	}
	victim := group.Physical(l0, 0, n)
	s.recovered = victim
	led := 0
	for g := 0; g < s.groups; g++ {
		l, ok := s.groupAgreement(g, nil)
		if !ok || group.Physical(l, g, n) != victim {
			continue
		}
		from := node.ID(0)
		if from == victim {
			from = node.ID(1)
		}
		for i := 0; i < s.commands; i++ {
			s.c.Inject(from, victim, group.Wrap(g, rsm.RequestMsg{V: consensus.Value(fmt.Sprintf("burst-g%d-%d", g, i))}))
		}
		led++
	}
	s.c.Crash(victim)
	fmt.Printf("fault:     killed p%v mid-batch — led %d of %d groups, hosted %d WALs\n", victim, led, s.groups, s.groups)

	survivors := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if node.ID(i) != victim {
			survivors = append(survivors, i)
		}
	}
	skip := map[int]bool{int(victim): true}
	if err := s.waitFor(func() bool {
		leaders := s.allGroupsAgree(skip)
		if leaders == nil {
			return false
		}
		for g, l := range leaders {
			if group.Physical(l, g, n) == victim {
				return false
			}
		}
		return true
	}, "live leader in every group after kill"); err != nil {
		return err
	}
	// As in runRecovery, outage progress is relative to the kill: every
	// group must get commands past the furthest any group stood then.
	atKill, target := make([]int, s.groups), 0
	for g := 0; g < s.groups; g++ {
		atKill[g] = s.glogs[survivors[0]][g].Recorder().Count()
		for _, p := range survivors {
			target = max(target, s.glogs[p][g].Recorder().Count())
		}
	}
	if err := s.groupPump(survivors, "outage", target+s.commands); err != nil {
		return err
	}
	// Per group, the highest instance the survivors decided while the
	// victim was down: the bar each of its G recoveries has to clear.
	outageMax := make([]int, s.groups)
	for g := 0; g < s.groups; g++ {
		outageMax[g] = outageBar(s.glogs[survivors[0]][g].Recorder(), atKill[g])
	}

	if err := s.restartGroup(victim); err != nil {
		return err
	}
	fmt.Printf("fault:     restarted p%v from %d WAL directories under %s\n", victim, s.groups, s.walPath(victim))
	if err := s.waitFor(func() bool { return s.allGroupsAgree(nil) != nil }, "convergence after restart"); err != nil {
		return err
	}
	if err := s.waitFor(func() bool {
		for g := 0; g < s.groups; g++ {
			if !caughtUp(s.glogs[victim][g].Recorder(), s.gstores[victim][g], outageMax[g]) {
				return false
			}
		}
		return true
	}, "restarted replica catch-up in every group"); err != nil {
		return err
	}
	return s.groupPump(all, "post", 3*s.commands)
}

// reopen loads one WAL directory offline and returns its recovered state.
func (s *soak) reopen(id node.ID) (*durable.State, error) {
	return reopenPath(s.walPath(id))
}

// reopenPath loads a WAL directory offline and returns its recovered
// state.
func reopenPath(dir string) (*durable.State, error) {
	w, err := durable.Open(dir, durable.Options{Sync: durable.SyncOff})
	if err != nil {
		return nil, err
	}
	st := w.State()
	return st, w.Close()
}

// recoveredSequence re-derives, from a recovered durable state alone,
// the applied command sequence a restart would rebuild: the snapshot's
// absorbed prefix plus the contiguous decided tail, batch envelopes
// fanned out exactly as the applier would.
func recoveredSequence(st *durable.State) []string {
	var seq []string
	if len(st.App) > 0 {
		seq = strings.Split(string(st.App), appliedSep)
	}
	decided := make(map[uint64]string, len(st.Decided))
	for _, d := range st.Decided {
		decided[d.Inst] = d.V
	}
	for next := st.SnapIndex; ; next++ {
		v, ok := decided[next]
		if !ok {
			return seq
		}
		for _, c := range rsm.DecodeBatch(consensus.Value(v)) {
			seq = append(seq, string(c))
		}
	}
}

// checkReplayEquivalence re-reads every WAL directory offline, twice,
// after the cluster has stopped. Recovery must be deterministic (equal
// state across opens), and the applied sequence each WAL rebuilds must
// be a prefix of every longer one — same commands, same order, nothing
// lost, nothing doubled. The restarted process's sequence must be
// non-empty so the check cannot pass vacuously.
func (s *soak) checkReplayEquivalence() error {
	seqs := make([][]string, len(s.logs))
	for i := range s.logs {
		a, err := s.reopen(node.ID(i))
		if err != nil {
			return err
		}
		b, err := s.reopen(node.ID(i))
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(a, b) {
			return fmt.Errorf("replay of p%d is not deterministic across opens", i)
		}
		if a == nil {
			return fmt.Errorf("p%d recovered no durable state", i)
		}
		seqs[i] = recoveredSequence(a)
	}
	if len(seqs[s.recovered]) == 0 {
		return fmt.Errorf("replay check vacuous: restarted p%v rebuilds an empty sequence", s.recovered)
	}
	for i := range seqs {
		for j := i + 1; j < len(seqs); j++ {
			short, long := seqs[i], seqs[j]
			if len(short) > len(long) {
				short, long = long, short
			}
			for k := range short {
				if short[k] != long[k] {
					return fmt.Errorf("replay divergence: applied command %d is %q on p%d, %q on p%d", k, seqs[i][k], i, seqs[j][k], j)
				}
			}
		}
	}
	fmt.Printf("replay:    WAL recovery deterministic; applied sequences prefix-consistent (restarted p%v rebuilds %d commands)\n",
		s.recovered, len(seqs[s.recovered]))
	return nil
}

// checkGroupReplayEquivalence is the sharded offline replay check: for
// every group independently, re-read each process's group WAL directory
// twice (determinism), then require the G applied sequences the cluster
// would rebuild to be pairwise prefix-consistent within the group. The
// restarted process must rebuild a non-empty sequence in every group it
// hosted, so no group's check can pass vacuously.
func (s *soak) checkGroupReplayEquivalence() error {
	rebuilt := make([]int, s.groups)
	for g := 0; g < s.groups; g++ {
		seqs := make([][]string, len(s.glogs))
		for i := range s.glogs {
			dir := s.groupWALPath(node.ID(i), g)
			a, err := reopenPath(dir)
			if err != nil {
				return err
			}
			b, err := reopenPath(dir)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(a, b) {
				return fmt.Errorf("group %d: replay of p%d is not deterministic across opens", g, i)
			}
			if a == nil {
				return fmt.Errorf("group %d: p%d recovered no durable state", g, i)
			}
			seqs[i] = recoveredSequence(a)
		}
		if len(seqs[s.recovered]) == 0 {
			return fmt.Errorf("group %d replay check vacuous: restarted p%v rebuilds an empty sequence", g, s.recovered)
		}
		rebuilt[g] = len(seqs[s.recovered])
		for i := range seqs {
			for j := i + 1; j < len(seqs); j++ {
				short, long := seqs[i], seqs[j]
				if len(short) > len(long) {
					short, long = long, short
				}
				for k := range short {
					if short[k] != long[k] {
						return fmt.Errorf("group %d replay divergence: applied command %d is %q on p%d, %q on p%d", g, k, seqs[i][k], i, seqs[j][k], j)
					}
				}
			}
		}
	}
	fmt.Printf("replay:    %d WAL dirs per process deterministic; applied sequences prefix-consistent per group (restarted p%v rebuilds %v commands)\n",
		s.groups, s.recovered, rebuilt)
	return nil
}

// checkGroupSafety verifies, per group, that no consensus instance
// decided two values on any process.
func (s *soak) checkGroupSafety() error {
	for g := 0; g < s.groups; g++ {
		recs := make([]*consensus.Recorder, len(s.glogs))
		for i := range s.glogs {
			recs[i] = s.glogs[i][g].Recorder()
		}
		rep := consensus.CheckSafety(consensus.SafetyInput{Recorders: recs})
		if !rep.Agreement {
			return fmt.Errorf("group %d consensus disagreement: %v", g, rep.Violations)
		}
	}
	return nil
}

// checkSafety verifies no consensus instance decided two values anywhere
// — crashed and once-partitioned replicas included.
func (s *soak) checkSafety() error {
	recs := make([]*consensus.Recorder, len(s.logs))
	for i, l := range s.logs {
		recs[i] = l.Recorder()
	}
	rep := consensus.CheckSafety(consensus.SafetyInput{Recorders: recs})
	if !rep.Agreement {
		return fmt.Errorf("consensus disagreement: %v", rep.Violations)
	}
	return nil
}

func idsOf(ps []int) []node.ID {
	out := make([]node.ID, len(ps))
	for i, p := range ps {
		out[i] = node.ID(p)
	}
	return out
}
