// Command chaossoak is the kill -9 drill on a live cluster — real TCP
// sockets on loopback. Every replica journals its consensus state through
// internal/durable. The drill commits a batch, kills the leader mid batch,
// lets the survivors keep deciding, and rebuilds the dead process from its
// WAL directory in place (TCPCluster.Restart: the process keeps its
// sockets). It must rejoin, catch up on what it missed, and regain
// proposer eligibility: the next leader is killed and the rest must
// decide again. At the end the run checks that no consensus instance
// decided two values, then re-reads the WAL directories offline and
// cross-checks the applied sequences they rebuild (replay equivalence).
// Process i journals to walroot/p<i>.
//
// Usage examples:
//
//	chaossoak -n 3
//	chaossoak -n 5 -fsync always -lease 300ms
//	chaossoak -n 3 -eta 200ms -metrics-addr :8080
//
// Link faults live in internal/transport's soak tests on the same
// sockets: TestChaosSoakTCP (leader crash, minority cut, heal) and
// TestChaosSoakPreGSTChaosHeals (pre-GST loss and delay).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/node"
	"repro/internal/obs"
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

// snapshotEvery is how many applied commands a replica checkpoints its WAL
// after.
const snapshotEvery = 8

func run(args []string) (err error) {
	fs := flag.NewFlagSet("chaossoak", flag.ContinueOnError)
	var (
		n            = fs.Int("n", 5, "number of processes (at least 3: each kill must leave a quorum)")
		eta          = fs.Duration("eta", 5*time.Millisecond, "heartbeat period η")
		bound        = fs.Duration("bound", 30*time.Second, "per-phase convergence bound")
		commands     = fs.Int("commands", 5, "consensus instances to commit per traffic phase")
		metricsAddr  = fs.String("metrics-addr", "", "serve /metrics, /healthz and pprof on this address (e.g. :8080)")
		metricsOut   = fs.String("metrics-out", "", "at the end of the run, write what GET /metrics would answer to this file (parent directories are created)")
		traceTail    = fs.Int("trace-tail", 0, "record message events in a bounded ring and print the last N at exit")
		traceTailOut = fs.String("trace-tail-out", "", "with -trace-tail, also write the tail to this file (parent directories are created)")
		traceDir     = fs.String("trace-dir", "", "record causal spans and write flight-recorder dumps (plus a final dump) into this directory; feed it to traceview")
		lease        = fs.Duration("lease", 0, "leader read lease; 0 disables (a lease trades failover latency for local reads)")
		fsyncName    = fs.String("fsync", "group", "WAL fsync policy: always, group, off")
		walDir       = fs.String("wal-dir", "", "WAL root (default: a fresh temp dir, removed on success)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 3 {
		return fmt.Errorf("the drill needs n >= 3, got %d", *n)
	}

	s := &soak{eta: *eta, bound: *bound, commands: *commands, lease: *lease, walRoot: *walDir}
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

	// The observer: the collector, the flight recorder and the event-log
	// tail are three subscribers of the one sink the cluster, the WALs and
	// every replica's History and Recorder report into.
	tel := telemetry.New(*n)
	s.tel = tel
	if *traceDir != "" {
		// The flight recorder: spans from every layer land in per-process
		// rings; anomalies (leader changes, crashes, fallback reads, slow
		// fsyncs, drops) snapshot them into trace-*.json dumps.
		s.tset = tracing.New(tracing.Config{Procs: *n, Dir: *traceDir})
	}
	var tail *tracing.Set
	if *traceTail > 0 {
		tail = tracing.New(tracing.Config{Procs: *n, Limit: *traceTail})
	}
	s.observer = obs.Tee(tel, s.tset.Sink(), tail.MessageSink())
	autos, err := s.buildReplicas(*n)
	if err != nil {
		return err
	}
	cfg := transport.Config{
		N: *n, Quiet: true,
		WriteTimeout: 200 * time.Millisecond, Observer: s.observer,
		OnFlush: telemetry.FlushHook(s.observer),
	}
	c, err := transport.NewTCPCluster(cfg, autos)
	if err != nil {
		return err
	}
	s.c = c
	// One clock for the run: the trace sets are anchored at the cluster
	// clock's zero, so spans, marks, WAL stamps and gauges all read it.
	zero := time.Now().Add(-time.Duration(c.Now()))
	s.tset.SetWallStart(zero)
	tail.SetWallStart(zero)
	tel.AttachStats(c.Stats(), c.Now)
	for i := range s.logs {
		s.attach(node.ID(i))
	}
	if *metricsAddr != "" {
		var trace func(io.Writer) error
		if s.tset != nil {
			trace = s.tset.WriteJSON
		}
		srv, err := telemetry.Serve(*metricsAddr, tel, trace)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("telemetry: serving /metrics, /healthz, /debug/pprof on http://%s\n", srv.Addr())
	}
	c.Start()
	defer c.Stop()

	fmt.Printf("chaossoak: n=%d eta=%v fsync=%s\n", *n, *eta, *fsyncName)
	if err := s.drill(); err != nil {
		return err
	}
	if err := s.checkSafety(); err != nil {
		return err
	}
	// Quiesce before re-reading the WAL directories offline: an open on a
	// live, appending log would race the node loops.
	c.Stop()
	if err := s.checkReplayEquivalence(); err != nil {
		return err
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
			if err := writeOut("-trace-tail-out", *traceTailOut, func(w io.Writer) error {
				return tail.WriteText(w, *traceTail, true)
			}); err != nil {
				return err
			}
			fmt.Printf("trace:     wrote %s\n", *traceTailOut)
		}
	}
	if *metricsOut != "" {
		if err := writeOut("-metrics-out", *metricsOut, func(w io.Writer) error {
			tel.WritePrometheus(w)
			return nil
		}); err != nil {
			return err
		}
		fmt.Printf("metrics:   wrote %s\n", *metricsOut)
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

// writeOut creates path's parent directory and writes path with write;
// flag names the option that asked for it in an error.
func writeOut(flag, path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("create %s directory: %w", flag, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write %s: %w", flag, err)
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s %s: %w", flag, path, err)
	}
	return nil
}

// soak holds the replicas and their logs for one run, each indexed by
// process.
type soak struct {
	eta       time.Duration
	bound     time.Duration
	lease     time.Duration
	commands  int
	c         *transport.TCPCluster
	tel       *telemetry.Collector
	tset      *tracing.Set // nil without -trace-dir; every method no-ops then
	observer  obs.Sink     // what the cluster reports into: tel, tset, the -trace-tail ring
	dets      []*core.Detector
	logs      []*rsm.Node
	stores    []*durable.WAL
	walRoot   string
	sync      durable.SyncPolicy
	recovered node.ID // the process killed and rebuilt from disk
}

// attach subscribes the observer to replica id's current incarnation: its
// detector's output, its decisions and its read path.
func (s *soak) attach(id node.ID) {
	l := s.logs[id]
	telemetry.Attach(s.observer, s.tel, telemetry.Process{
		ID: id, History: s.dets[id].History(), Recorder: l.Recorder(),
		Lease: func() (bool, uint64, uint64) { return l.LeaseHeld(), l.LocalReads(), l.FallbackReads() },
	})
}

// walOptions are the durable.Options of replica i's log.
func (s *soak) walOptions(i int) durable.Options {
	opts := durable.Options{Sync: s.sync}
	opts.OnAppend, opts.OnFsync, opts.OnRecover = telemetry.WALHooks(s.observer, node.ID(i), s.tset.Stamp)
	return opts
}

// buildReplicas builds one process per id, each a rebuff-hardened
// detector plus a replicated log. Rebuff matters here: a process rebuilt
// after a kill boots with no accusation counts, and a stale self-leader is
// what a rebuff corrects.
func (s *soak) buildReplicas(n int) ([]node.Automaton, error) {
	autos := make([]node.Automaton, n)
	s.dets, s.logs, s.stores = make([]*core.Detector, n), make([]*rsm.Node, n), make([]*durable.WAL, n)
	for i := range autos {
		var err error
		if autos[i], err = s.buildReplica(i); err != nil {
			return nil, err
		}
	}
	return autos, nil
}

// buildReplica composes process i, journaling through its WAL directory.
// It is also the rebuild path: reopening the same directory recovers
// everything the previous incarnation persisted.
func (s *soak) buildReplica(i int) (node.Automaton, error) {
	cfg := rsm.Config{DriveInterval: 2 * s.eta, Lease: s.lease, Tracer: s.tset.Tracer(i)}
	// The "application" here is the applied command sequence itself:
	// snapshots absorb it, restarts restore it, and the offline
	// replay-equivalence check re-derives it from the WAL alone.
	al := &appliedLog{}
	w, err := durable.Open(s.walPath(node.ID(i)), s.walOptions(i))
	if err != nil {
		return nil, err
	}
	s.stores[i] = w
	cfg.Store, cfg.SnapshotEvery = w, snapshotEvery
	cfg.SnapshotState, cfg.RestoreState = al.snapshot, al.restore
	s.dets[i] = core.New(core.WithEta(s.eta), core.WithRebuff())
	s.logs[i] = rsm.New(s.dets[i], cfg)
	s.logs[i].OnApply(func(inst, cmd int, v consensus.Value) { al.cmds = append(al.cmds, string(v)) })
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

// walPath is process id's journal directory.
func (s *soak) walPath(id node.ID) string { return filepath.Join(s.walRoot, fmt.Sprintf("p%d", id)) }

// restart rebuilds process id from its WAL directory and reboots it in
// place. The dead incarnation's WAL handle is abandoned unclosed, exactly
// as kill -9 leaves it; recovery reads the directory fresh.
func (s *soak) restart(id node.ID) error {
	auto, err := s.buildReplica(int(id))
	if err != nil {
		return err
	}
	s.attach(id)
	s.c.Restart(id, auto)
	return nil
}

// leader returns the leader the processes not in skip agree on, or
// node.None while they dispute it.
func (s *soak) leader(skip map[int]bool) node.ID {
	leader := node.None
	for i, d := range s.dets {
		if skip[i] {
			continue
		}
		if l := d.History().Current(); leader == node.None {
			leader = l
		} else if l != leader {
			return node.None
		}
	}
	return leader
}

// outside reports whether l is a leader and not in skip.
func outside(l node.ID, skip map[int]bool) bool { return l != node.None && !skip[int(l)] }

// settled waits until the processes not in skip agree on a leader among
// themselves, and returns it. Right after a pump the Omegas may be in
// dispute for an instant, and a one-shot look would then name node.None.
func (s *soak) settled(skip map[int]bool, what string) (node.ID, error) {
	var l node.ID
	err := s.waitFor(func() bool {
		l = s.leader(skip)
		return outside(l, skip)
	}, what)
	return l, err
}

// kill crashes process id, printing what, and waits until the others
// agree on a leader among themselves. It returns the others.
func (s *soak) kill(id node.ID, what string) ([]int, error) {
	s.c.Crash(id)
	fmt.Printf("fault:     %s\n", what)
	_, err := s.settled(map[int]bool{int(id): true}, fmt.Sprintf("re-election without p%v", id))
	return slices.DeleteFunc(ints(len(s.dets)), func(p int) bool { return p == int(id) }), err
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

// pump has a client of the first process in correct submit, once, what
// the replicas in correct lack of target commands, and waits until each has
// recorded target (a restarted replica counts from its restart).
func (s *soak) pump(correct []int, prefix string, target int) error {
	at, need := node.ID(correct[0]), 0
	for _, p := range correct {
		need = max(need, target-s.logs[p].Recorder().Count())
	}
	for i := 0; i < need; i++ {
		s.c.Inject(at, at, rsm.RequestMsg{V: consensus.Value(fmt.Sprintf("%s-%d", prefix, i))})
	}
	return s.waitFor(func() bool {
		for _, p := range correct {
			if s.logs[p].Recorder().Count() < target {
				return false
			}
		}
		return true
	}, prefix+" consensus progress")
}

// ints is 0, 1, …, n-1.
func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// drill is the kill -9 drill: commit a batch, kill the leader with a
// burst of requests in flight, let the survivors advance, rebuild the dead
// process from its WAL, and require it to rejoin, catch up on the outage,
// and win back proposer eligibility before the final safety and replay
// checks.
func (s *soak) drill() error {
	all := ints(len(s.dets))
	if _, err := s.settled(nil, "initial agreement"); err != nil {
		return err
	}
	if err := s.pump(all, "pre", s.commands); err != nil {
		return err
	}
	victim, err := s.settled(nil, "settled leader to kill")
	if err != nil {
		return err
	}
	s.recovered = victim

	// Kill the leader mid-batch: a burst of its clients' requests is still
	// being proposed when it dies, so its WAL tail holds accepts that may
	// never have reached a quorum — recovery must carry them without
	// inventing decisions.
	for i := 0; i < s.commands; i++ {
		s.c.Inject(victim, victim, rsm.RequestMsg{V: consensus.Value(fmt.Sprintf("burst-%d", i))})
	}
	survivors, err := s.kill(victim, fmt.Sprintf("killed leader p%v mid-batch", victim))
	if err != nil {
		return err
	}
	// Progress during the outage is relative to where the survivors stood
	// at the kill: the pre pump may have overshot any absolute target, and
	// the outage must decide something for the catch-up to have a bar.
	atKill, target := s.logs[survivors[0]].Recorder().Count(), 0
	for _, p := range survivors {
		target = max(target, s.logs[p].Recorder().Count())
	}
	if err := s.pump(survivors, "outage", target+s.commands); err != nil {
		return err
	}
	// The highest instance the survivors decided while the process was
	// down: the bar its catch-up has to clear.
	bar := outageBar(s.logs[survivors[0]].Recorder(), atKill)

	if err := s.restart(victim); err != nil {
		return err
	}
	fmt.Printf("fault:     restarted p%v from %s\n", victim, s.walPath(victim))
	if _, err := s.settled(nil, "convergence after restart"); err != nil {
		return err
	}
	if err := s.waitFor(func() bool {
		return caughtUp(s.logs[victim].Recorder(), s.stores[victim], bar)
	}, "restarted replica catch-up"); err != nil {
		return err
	}

	// Proposer eligibility: kill the current leader. If the restarted
	// process already leads again, progress below proves the point
	// directly; otherwise the cluster must keep deciding with the
	// restarted process voting in (and possibly leading) every quorum.
	// The rejoin itself may trigger a leader change.
	second, err := s.settled(nil, "settled leader before second kill")
	if err != nil {
		return err
	}
	correct := all
	if second != victim {
		if correct, err = s.kill(second, fmt.Sprintf("crashed second leader p%v", second)); err != nil {
			return err
		}
	}
	return s.pump(correct, "post", 3*s.commands)
}

// reopen loads a WAL directory offline and returns its recovered state.
func reopen(dir string) (*durable.State, error) {
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
// state across opens), and the applied sequence each WAL rebuilds must be
// a prefix of every longer one — same commands, same order, nothing lost,
// nothing doubled. The restarted process must rebuild a non-empty
// sequence, so the check cannot pass vacuously.
func (s *soak) checkReplayEquivalence() error {
	seqs := make([][]string, len(s.logs))
	for i := range seqs {
		dir := s.walPath(node.ID(i))
		a, err := reopen(dir)
		if err != nil {
			return err
		}
		b, err := reopen(dir)
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
	rebuilt := len(seqs[s.recovered])
	if rebuilt == 0 {
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
		s.recovered, rebuilt)
	return nil
}

// checkSafety verifies that no consensus instance decided two values
// anywhere — the killed and restarted replicas included.
func (s *soak) checkSafety() error {
	recs := make([]*consensus.Recorder, len(s.logs))
	for i, l := range s.logs {
		recs[i] = l.Recorder()
	}
	if rep := consensus.CheckSafety(consensus.SafetyInput{Recorders: recs}); !rep.Agreement {
		return fmt.Errorf("consensus disagreement: %v", rep.Violations)
	}
	return nil
}
