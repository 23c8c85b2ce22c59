package transport

import (
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/faultline"
	"repro/internal/node"
	"repro/internal/obs"
)

// bootMark counts incarnations and deliveries: enough to verify the
// crash→reboot mechanics without protocol traffic.
type bootMark struct {
	boots      *atomic.Int32
	deliveries *atomic.Int32
}

func (b bootMark) Start(node.Env) { b.boots.Add(1) }
func (b bootMark) Deliver(node.ID, node.Message) {
	if b.deliveries != nil {
		b.deliveries.Add(1)
	}
}
func (b bootMark) Tick(string) {}

// upDowns keeps the obs.Down and obs.Up events a cluster reports.
type upDowns struct {
	obs.Nop
	mu     sync.Mutex
	events []obs.Event
}

func (u *upDowns) OnEvent(e obs.Event) {
	u.mu.Lock()
	u.events = append(u.events, obs.Event{What: e.What, Proc: e.Proc, Peer: e.Peer})
	u.mu.Unlock()
}

// TestScheduledRestartPlanReboots drives a scheduled crash and restart end
// to end: the process crashes at its crash event, stays inert until its
// restart event, then reboots with the automaton from Config.Rebuild and
// receives messages again — and the observer is told of both by the
// stations themselves, a crash nobody called Crash for included.
func TestScheduledRestartPlanReboots(t *testing.T) {
	var boots, deliveries atomic.Int32
	seen := &upDowns{}
	inj := mustInjector(t, 2, 11, faultline.Plan{
		Schedule: faultline.Schedule{
			{At: 20 * time.Millisecond, Op: faultline.OpCrash, From: 0},
			{At: 50 * time.Millisecond, Op: faultline.OpRestart, From: 0},
		},
	})
	autos := []node.Automaton{
		bootMark{boots: &boots, deliveries: &deliveries},
		idleAutomaton{},
	}
	c, err := NewTCPCluster(Config{
		N: 2, Seed: 11, Quiet: true, Fault: inj, Observer: seen,
		Rebuild: func(id node.ID) node.Automaton {
			if id != 0 {
				t.Errorf("rebuild called for %d", id)
			}
			return bootMark{boots: &boots, deliveries: &deliveries}
		},
	}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	waitFor(t, 5*time.Second, func() bool { return c.stations[0].Down() }, "scheduled crash")
	waitFor(t, 5*time.Second, func() bool { return boots.Load() == 2 }, "reboot Start")
	if c.stations[0].Down() {
		t.Fatal("station still marked crashed after reboot")
	}
	before := deliveries.Load()
	waitFor(t, 5*time.Second, func() bool {
		c.Inject(1, 0, pingMsg())
		return deliveries.Load() > before
	}, "post-reboot delivery")

	c.Crash(1)
	c.Crash(1) // crashing the dead is not an event
	seen.mu.Lock()
	defer seen.mu.Unlock()
	want := []obs.Event{{What: obs.Down, Proc: 0, Peer: -1}, {What: obs.Up, Proc: 0, Peer: -1}, {What: obs.Down, Proc: 1, Peer: -1}}
	if !reflect.DeepEqual(seen.events, want) {
		t.Fatalf("observer saw %v, want %v", seen.events, want)
	}
}

// TestRebuildRequiredForRestartPlan: a schedule with a restart and no
// Rebuild hook cannot produce the next incarnation and must be rejected up
// front.
func TestRebuildRequiredForRestartPlan(t *testing.T) {
	inj := mustInjector(t, 2, 12, faultline.Plan{
		Schedule: faultline.Schedule{
			{At: time.Millisecond, Op: faultline.OpCrash, From: 0},
			{At: time.Millisecond, Op: faultline.OpRestart, From: 0},
		},
	})
	if _, err := NewTCPCluster(Config{N: 2, Seed: 12, Fault: inj}, idleAutomatons(2)); err == nil {
		t.Fatal("restart plan without Rebuild accepted")
	}
}

// TestRestartedReplicaRejoinsAndCatchesUp is the live kill -9 drill: a
// three-replica rsm cluster with per-process WALs
// commits a batch, the leader is crashed, the survivors keep deciding,
// and the leader is then rebuilt from its WAL directory. The restarted
// replica must catch up on what it missed and the union of all decision
// logs — pre-crash and post-recovery — must stay consistent.
func TestRestartedReplicaRejoinsAndCatchesUp(t *testing.T) {
	const n = 3
	const bound = 20 * time.Second
	base := t.TempDir()
	openStore := func(i int) *durable.WAL {
		w, err := durable.Open(filepath.Join(base, "p"+string(rune('0'+i))), durable.Options{Sync: durable.SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	build := func(i int, w *durable.WAL) (*core.Detector, *rsm.Node, node.Automaton) {
		det := core.New(core.WithEta(5*time.Millisecond), core.WithRebuff())
		log := rsm.New(det, rsm.Config{DriveInterval: 10 * time.Millisecond, Store: w})
		return det, log, node.Compose(det, log)
	}

	autos := make([]node.Automaton, n)
	dets := make([]*core.Detector, n)
	logs := make([]*rsm.Node, n)
	for i := 0; i < n; i++ {
		dets[i], logs[i], autos[i] = build(i, openStore(i))
	}
	c, err := NewTCPCluster(Config{N: n, Seed: 13, Quiet: true}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	// Commit a first batch under whoever is agreed on: usually p0, but one
	// premature accusation at η = 5 ms on a busy box moves leadership off it
	// for good, and the drill is about the leader, not about p0.
	var dead int
	waitFor(t, bound, func() bool {
		l, ok := agreement(dets, nil)
		dead = int(l)
		return ok
	}, "initial agreement")
	pumpCommands(t, c, dets, logs, []int{0, 1, 2}, "pre", 3, bound)

	// kill -9 the leader; the survivors re-elect and keep deciding the
	// entries the dead replica will have to recover later.
	c.Crash(node.ID(dead))
	survivors := []int{(dead + 1) % n, (dead + 2) % n}
	waitFor(t, bound, func() bool {
		l, ok := agreement(dets, map[int]bool{dead: true})
		return ok && int(l) != dead
	}, "re-election after leader crash")
	pumpCommands(t, c, dets, logs, survivors, "mid", 6, bound)

	// Restart it from its WAL directory: a fresh automaton over a fresh
	// durable.Open of the same state the dead incarnation persisted.
	// (The crashed incarnation's handle is simply abandoned, as kill -9
	// would; it can write nothing more.)
	var auto node.Automaton
	dets[dead], logs[dead], auto = build(dead, openStore(dead))
	c.Restart(node.ID(dead), auto)

	// The restarted replica converges on the current leader, recovers its
	// pre-crash decisions, and catches up on everything it missed.
	waitFor(t, bound, func() bool {
		_, ok := agreement(dets, nil)
		return ok
	}, "convergence after restart")
	waitFor(t, bound, func() bool { return logs[dead].Recorder().Count() >= 6 }, "restarted replica catch-up")

	// And it participates in new consensus rounds like any correct node.
	pumpCommands(t, c, dets, logs, []int{0, 1, 2}, "post", 8, bound)

	recs := make([]*consensus.Recorder, n)
	for i, l := range logs {
		recs[i] = l.Recorder()
	}
	rep := consensus.CheckSafety(consensus.SafetyInput{Recorders: recs})
	if !rep.Agreement {
		t.Fatalf("disagreement across restart: %v", rep.Violations)
	}
}
