package telemetry_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/faultline"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tracing"
	"repro/internal/transport"
)

// eventLog is a subscriber that keeps every event it is handed.
type eventLog struct {
	obs.Nop
	mu     sync.Mutex
	events []obs.Event
}

func (l *eventLog) OnEvent(e obs.Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// story is the log reduced to what happened to whom: runs of the same kind
// of event collapse to one entry.
func (l *eventLog) story() []obs.What {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []obs.What
	for _, e := range l.events {
		if len(out) == 0 || out[len(out)-1] != e.What {
			out = append(out, e.What)
		}
	}
	return out
}

// TestSimCrashReachesCollector is the regression test for /healthz
// answering 503 forever after a simulated crash: the world reports the
// crash itself, so a collector that is merely the run's observer sees
// the dead leader leave and the survivors agree again.
func TestSimCrashReachesCollector(t *testing.T) {
	var sys *scenario.System
	tel := telemetry.New(5, telemetry.WithClock(func() sim.Time { return sys.World.Kernel.Now() }))
	sys, err := scenario.Build(scenario.Config{
		N: 5, Seed: 1, Observer: tel,
		Schedule: faultline.Schedule{{At: 300 * time.Millisecond, Op: faultline.OpCrash, From: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tel.AttachStats(sys.World.Stats)
	for i, om := range sys.Omegas {
		telemetry.Attach(tel, tel, telemetry.Process{ID: node.ID(i), History: om.History()})
	}
	sys.Run(3 * time.Second)

	if l, ok := tel.Leader(); !ok || l != 1 {
		t.Fatalf("Leader() = %v/%v, want p1 agreed by the survivors", l, ok)
	}
	if got := tel.Elections(); got != 2 {
		t.Fatalf("Elections() = %d, want 2 (the initial one and the one after the crash)", got)
	}
	if dt := tel.Hist(telemetry.ElectionDowntime); dt.Count != 2 {
		t.Fatalf("downtime histogram holds %d elections, want 2", dt.Count)
	}
	if h := tel.Health(); !h.Agreed || h.Leader != 1 {
		t.Fatalf("Health() = %+v, want agreed on p1", h)
	}
	// Events are not messages: the crash and the leader changes must not
	// have reached the message counters.
	if sent, kinds := sys.World.Stats.TotalSent(), sys.World.Stats.Kinds(); sent == 0 || len(kinds) != 2 {
		t.Fatalf("stats: %d sent of kinds %v, want LEADER and ACCUSE traffic only", sent, kinds)
	}
}

// TestSubscribersSeeEveryEventInAnyOrder: History and Recorder keep one
// append-only hook list each, so the collector, the span ring and a third
// subscriber attached to the same objects all see every event whichever
// attaches first. (A hook setter that replaced what was installed let the
// later subscriber wipe the earlier ones — Recorder once had no other kind.)
func TestSubscribersSeeEveryEventInAnyOrder(t *testing.T) {
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}} {
		tel, set, log := telemetry.New(3), tracing.New(tracing.Config{Procs: 3}), &eventLog{}
		sinks := []obs.Sink{tel, set.Sink(), log}
		hist, rec := detector.NewHistory(), consensus.NewRecorder()
		for _, i := range order {
			telemetry.Attach(sinks[i], nil, telemetry.Process{ID: 1, History: hist, Recorder: rec})
		}
		hist.Record(10, 2)
		hist.Record(20, 0)
		rec.RecordInstance(0, "a", 30, 1, []sim.Time{30 - sim.At(time.Millisecond)})
		rec.RecordInstance(1, "b", 40, 1, []sim.Time{35}) // the Recorder keeps no learn time: the hook is told it

		if tel.LeaderChanges() != 2 || tel.Decides() != 2 {
			t.Errorf("order %v: collector saw %d leader changes and %d decisions, want 2 and 2", order, tel.LeaderChanges(), tel.Decides())
		}
		marks := set.Marks()
		if len(marks) != 2 || marks[0].Name != "leader-change" || marks[0].Peer != 2 || marks[1].Peer != 0 {
			t.Errorf("order %v: span ring holds %+v, want the two leader changes", order, marks)
		}
		want := []obs.Event{
			{T: 10, What: obs.LeaderChange, Proc: 1, Peer: 2},
			{T: 20, What: obs.LeaderChange, Proc: 1, Peer: 0},
			{T: 30, What: obs.Decide, Proc: 1, Peer: -1, Dur: time.Millisecond},
			{T: 40, What: obs.Decide, Proc: 1, Peer: -1, Dur: 5},
		}
		if !reflect.DeepEqual(log.events, want) {
			t.Errorf("order %v: third subscriber saw %v, want %v", order, log.events, want)
		}
	}
}

// TestSimAndLiveTellTheSameStory is the north-star sentence as a test:
// "sim and live runs emit the same events through the same path". The
// same script — three core detectors agree, the leader is crashed, the
// survivors agree again — runs on node.World and on a
// transport.TCPCluster with the same one subscriber as observer, and both
// deliver the same kinds of events in the same causal order.
func TestSimAndLiveTellTheSameStory(t *testing.T) {
	const n = 3
	build := func(log *eventLog) ([]*core.Detector, []node.Automaton) {
		dets, autos := make([]*core.Detector, n), make([]node.Automaton, n)
		for i := range dets {
			dets[i] = core.New(core.WithEta(4 * time.Millisecond))
			autos[i] = dets[i]
			telemetry.Attach(log, nil, telemetry.Process{ID: node.ID(i), History: dets[i].History()})
		}
		return dets, autos
	}
	agreed := func(dets []*core.Detector, skip node.ID) (node.ID, bool) {
		leader := node.None
		for i, d := range dets {
			if node.ID(i) == skip {
				continue
			}
			if l := d.History().Current(); l == node.None || l == skip || leader != node.None && l != leader {
				return node.None, false
			} else {
				leader = l
			}
		}
		return leader, true
	}
	check := func(runtime string, log *eventLog, crashed node.ID) {
		t.Helper()
		want := []obs.What{obs.LeaderChange, obs.Down, obs.LeaderChange}
		if got := log.story(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: story %v, want %v", runtime, got, want)
		}
		afterCrash := false
		for _, e := range log.events {
			switch {
			case e.What == obs.Down:
				if afterCrash = true; e.Proc != int(crashed) || e.Peer != -1 {
					t.Fatalf("%s: down event %+v, want p%d", runtime, e, crashed)
				}
			case afterCrash && e.Proc == int(crashed):
				t.Fatalf("%s: the crashed process kept reporting: %+v", runtime, e)
			}
		}
	}

	simLog := &eventLog{}
	dets, autos := build(simLog)
	w, err := node.NewWorld(node.WorldConfig{N: n, Seed: 3, DefaultLink: network.Timely(time.Millisecond), Observer: simLog})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range autos {
		w.SetAutomaton(node.ID(i), a)
	}
	w.Start()
	w.RunFor(200 * time.Millisecond)
	simLeader, ok := agreed(dets, node.None)
	if !ok {
		t.Fatal("sim: no agreement after 200ms")
	}
	w.Crash(simLeader)
	w.RunFor(time.Second)
	if _, ok := agreed(dets, simLeader); !ok {
		t.Fatal("sim: survivors did not agree within 1s of the crash")
	}
	check("sim", simLog, simLeader)

	liveLog := &eventLog{}
	dets, autos = build(liveLog)
	c, err := transport.NewTCPCluster(transport.Config{N: n, Seed: 3, Quiet: true, Observer: liveLog}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	await := func(skip node.ID, what string) node.ID {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
			if l, ok := agreed(dets, skip); ok {
				return l
			}
		}
		t.Fatalf("live: %s not reached within 10s", what)
		return node.None
	}
	liveLeader := await(node.None, "initial agreement")
	c.Crash(liveLeader)
	await(liveLeader, "agreement among the survivors")
	c.Stop()
	check("live", liveLog, liveLeader)
}
