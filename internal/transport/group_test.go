package transport

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/group"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/faultline"
	"repro/internal/node"
)

// buildGroupFleet constructs n sharded processes: each is a group.Engine
// of one Omega detector + rsm.Node per group, rotated into the group's
// logical id space. Detectors and logs are indexed [process][group] in
// physical process order.
func buildGroupFleet(n, groups int, eta time.Duration) (autos []node.Automaton, dets [][]*core.Detector, logs [][]*rsm.Node) {
	autos = make([]node.Automaton, n)
	dets = make([][]*core.Detector, n)
	logs = make([][]*rsm.Node, n)
	for i := 0; i < n; i++ {
		dets[i] = make([]*core.Detector, groups)
		logs[i] = make([]*rsm.Node, groups)
		i := i
		autos[i] = group.New(group.Config{
			Groups: groups,
			Build: func(g int) node.Automaton {
				dets[i][g] = core.New(core.WithEta(eta))
				logs[i][g] = rsm.New(dets[i][g], rsm.Config{DriveInterval: 10 * time.Millisecond})
				return node.Compose(dets[i][g], logs[i][g])
			},
		})
	}
	return autos, dets, logs
}

// runGroupSharded is the multi-group smoke test: G groups over one shared
// cluster each stabilize on a *different* physical leader (the id
// rotation), decide their own command stream, and never leak a decision
// into another group's log. It returns the cluster, stopped.
func runGroupSharded(t *testing.T, groups int) *TCPCluster {
	const n = 3
	const perGroup = 5
	autos, dets, logs := buildGroupFleet(n, groups, 10*time.Millisecond)
	c, err := NewTCPCluster(Config{N: n, Seed: 11, Quiet: true}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	// Every group stabilizes on logical leader 0 = physical process g mod n.
	waitFor(t, 10*time.Second, func() bool {
		for i := 0; i < n; i++ {
			for g := 0; g < groups; g++ {
				if dets[i][g].History().Current() != 0 {
					return false
				}
			}
		}
		return true
	}, "all groups stabilized on logical leader 0")

	// Drive each group's writes at its own physical leader.
	waitFor(t, 15*time.Second, func() bool {
		for g := 0; g < groups; g++ {
			leader := group.Physical(0, g, n)
			from := node.ID((int(leader) + 1) % n)
			for k := 0; k < perGroup; k++ {
				c.Inject(from, leader, group.Wrap(g, rsm.RequestMsg{V: consensus.Value(fmt.Sprintf("g%d-%d", g, k))}))
			}
			for i := 0; i < n; i++ {
				if logs[i][g].Recorder().Count() < perGroup {
					return false
				}
			}
		}
		return true
	}, "every group decided its writes on every replica")

	// No cross-group bleed: each group's log holds only its own commands.
	for i := 0; i < n; i++ {
		for g := 0; g < groups; g++ {
			for _, d := range logs[i][g].Recorder().All() {
				want := fmt.Sprintf("g%d-", g)
				if len(d.Value) < len(want) || string(d.Value[:len(want)]) != want {
					t.Fatalf("p%d group %d decided foreign command %q", i, g, d.Value)
				}
			}
		}
	}
	if err := checkGroupSafety(logs); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkGroupSafety runs the pairwise agreement check per group across all
// replicas' recorders.
func checkGroupSafety(logs [][]*rsm.Node) error {
	for g := 0; g < len(logs[0]); g++ {
		recs := make([]*consensus.Recorder, len(logs))
		for i := range logs {
			recs[i] = logs[i][g].Recorder()
		}
		rep := consensus.CheckSafety(consensus.SafetyInput{Recorders: recs})
		if !rep.Agreement {
			return fmt.Errorf("group %d disagreement: %v", g, rep.Violations)
		}
	}
	return nil
}

// TestTCPGroupSharded runs the smoke test with 2 and with 4 groups, and
// asserts the shared-socket property from counters: the cluster holds
// exactly one TCP connection per directed peer pair whatever the number
// of groups, and no link ever re-dialed.
func TestTCPGroupSharded(t *testing.T) {
	for _, groups := range []int{2, 4} {
		t.Run(fmt.Sprintf("groups=%d", groups), func(t *testing.T) {
			c := runGroupSharded(t, groups)
			// runGroupSharded has stopped the cluster; the counters are
			// final. Receiver-side conns are closed by Stop, but every
			// directed link must have dialed exactly once over the whole
			// run: every group's frames shared n*(n-1) = 6 sockets.
			if got, want := c.Dials(), uint64(3*2); got != want {
				t.Fatalf("lifetime dials = %d, want %d (one per directed pair, shared across groups)", got, want)
			}
		})
	}
}

// TestTCPGroupSharedConns asserts the live half of the shared-socket
// property: while a multi-group cluster is running and every link is in
// use, the receiver-side open-connection count is exactly n*(n-1).
func TestTCPGroupSharedConns(t *testing.T) {
	const n, groups = 3, 4
	autos, dets, logs := buildGroupFleet(n, groups, 10*time.Millisecond)
	c, err := NewTCPCluster(Config{N: n, Seed: 13, Quiet: true}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	waitFor(t, 10*time.Second, func() bool {
		for i := 0; i < n; i++ {
			for g := 0; g < groups; g++ {
				if dets[i][g].History().Current() != 0 {
					return false
				}
			}
		}
		return true
	}, "all groups stabilized")
	// Decide one write per group so every group has exercised the links.
	waitFor(t, 15*time.Second, func() bool {
		for g := 0; g < groups; g++ {
			leader := group.Physical(0, g, n)
			c.Inject(node.ID((int(leader)+1)%n), leader, group.Wrap(g, rsm.RequestMsg{V: consensus.Value(fmt.Sprintf("conn-g%d", g))}))
			for i := 0; i < n; i++ {
				if logs[i][g].Recorder().Count() < 1 {
					return false
				}
			}
		}
		return true
	}, "one decide per group")
	if got, want := c.OpenConns(), n*(n-1); got != want {
		t.Fatalf("open conns with %d groups = %d, want %d", groups, got, want)
	}
	if got, want := c.Dials(), uint64(n*(n-1)); got != want {
		t.Fatalf("dials with %d groups = %d, want %d", groups, got, want)
	}
}

// TestTCPGroupIsolation is the cross-group fault-isolation drill: isolate
// the physical process that leads group 0 and prove (a) group 1 — whose
// quorum is untouched — keeps deciding throughout the victim group's
// outage, without ever re-electing; (b) only group 0 re-elects, and it
// recovers.
func TestTCPGroupIsolation(t *testing.T) {
	const n, groups = 3, 2
	// A large eta keeps group 0's re-election comfortably slower than
	// group 1's per-decide latency, so "progress during the outage" is a
	// real window, not a race.
	const eta = 250 * time.Millisecond
	inj, err := faultline.New(n, 7, faultline.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	autos, dets, logs := buildGroupFleet(n, groups, eta)
	c, err := NewTCPCluster(Config{N: n, Seed: 7, Quiet: true, Fault: inj}, autos)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	waitFor(t, 10*time.Second, func() bool {
		for i := 0; i < n; i++ {
			for g := 0; g < groups; g++ {
				if dets[i][g].History().Current() != 0 {
					return false
				}
			}
		}
		return true
	}, "both groups stabilized")

	// Pre-isolation traffic in both groups.
	waitFor(t, 10*time.Second, func() bool {
		for g := 0; g < groups; g++ {
			leader := group.Physical(0, g, n)
			from := node.ID((int(leader) + 1) % n)
			for k := 0; k < 3; k++ {
				c.Inject(from, leader, group.Wrap(g, rsm.RequestMsg{V: consensus.Value(fmt.Sprintf("pre-g%d-%d", g, k))}))
			}
			for i := 0; i < n; i++ {
				if logs[i][g].Recorder().Count() < 3 {
					return false
				}
			}
		}
		return true
	}, "pre-isolation writes decided in both groups")

	// Group 0 leads at physical 0; group 1 at physical 1. Isolating
	// process 0 beheads group 0 while group 1's quorum {p1, p2} is whole.
	g1Pre := logs[1][1].Recorder().Count()
	inj.Isolate(0)

	// Pump group 1 continuously; watch for group 0's re-election on the
	// survivors; once a new group-0 leader is visible, drive one command
	// at it. The loop exits when group 0 has decided post-isolation — the
	// full outage window.
	g0Decided := func(l *rsm.Node) bool {
		for _, d := range l.Recorder().All() {
			if d.Value == consensus.Value("post-g0") {
				return true
			}
		}
		return false
	}
	g1Reelected := false
	deadline := time.Now().Add(30 * time.Second)
	for k := 0; ; k++ {
		if time.Now().After(deadline) {
			t.Fatal("group 0 never recovered from isolation")
		}
		// Group 1's detector on each survivor must never move off its
		// stable leader: only the victim group re-elects.
		for _, i := range []int{1, 2} {
			if dets[i][1].History().Current() != 0 {
				g1Reelected = true
			}
		}
		c.Inject(2, 1, group.Wrap(1, rsm.RequestMsg{V: consensus.Value(fmt.Sprintf("post-g1-%d", k))}))
		if l := dets[1][0].History().Current(); l != node.None && l != 0 {
			// Survivors elected a new group-0 leader; send it work from
			// the other survivor's logical id.
			leadPhys := group.Physical(l, 0, n)
			from := node.ID(1)
			if leadPhys == 1 {
				from = 2
			}
			c.Inject(from, leadPhys, group.Wrap(0, rsm.RequestMsg{V: consensus.Value("post-g0")}))
			if g0Decided(logs[1][0]) && g0Decided(logs[2][0]) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Group 1 progressed during the outage: the victim group's election
	// interregnum (>= eta) never stalled it.
	if got := logs[1][1].Recorder().Count() - g1Pre; got < 5 {
		t.Fatalf("group 1 decided only %d commands during group 0's outage", got)
	}
	if g1Reelected {
		t.Fatal("group 1 re-elected during group 0's outage (fault bled across groups)")
	}
	// And the survivors' group-0 logs agree with each other.
	if err := checkGroupSafety([][]*rsm.Node{logs[1], logs[2]}); err != nil {
		t.Fatal(err)
	}
}

// stepCounter counts the steps a group automaton takes — every Tick and
// every Deliver — and broadcasts a ping each time its 5 ms timer fires,
// so a live process of them both ticks and is delivered to.
type stepCounter struct {
	env             node.Env
	ticks, delivers atomic.Int64
}

func (c *stepCounter) Start(env node.Env) {
	c.env = env
	env.SetTimer("count", 5*time.Millisecond)
}

func (c *stepCounter) Deliver(node.ID, node.Message) { c.delivers.Add(1) }

func (c *stepCounter) Tick(key string) {
	c.ticks.Add(1)
	if key == "count" {
		c.env.Broadcast(pingMsg())
		c.env.SetTimer("count", 5*time.Millisecond)
	}
}

// countingProcess is one 2-group sharded process of stepCounters.
func countingProcess() (node.Automaton, []*stepCounter) {
	var cs []*stepCounter
	return group.New(group.Config{Groups: 2, Build: func(int) node.Automaton {
		cs = append(cs, &stepCounter{})
		return cs[len(cs)-1]
	}}), cs
}

// steps sums the ticks and the deliveries of counters.
func steps(counters ...[]*stepCounter) (ticks, delivers int64) {
	for _, cs := range counters {
		for _, c := range cs {
			ticks += c.ticks.Load()
			delivers += c.delivers.Load()
		}
	}
	return ticks, delivers
}

// expectStill fails unless counters take no step in the next 100 ms.
func expectStill(t *testing.T, what string, counters ...[]*stepCounter) {
	t.Helper()
	ticks, delivers := steps(counters...)
	time.Sleep(100 * time.Millisecond)
	if t2, d2 := steps(counters...); t2 != ticks || d2 != delivers {
		t.Fatalf("%s ticked %d more times and was delivered %d more messages", what, t2-ticks, d2-delivers)
	}
}

// TestShardedCrashStopsEveryGroup: a crashed sharded process takes no
// further step in any of its groups — crashed by TCPCluster.Crash, by a
// faultline crash plan, or by a restart plan, after which the old
// incarnation stays dead beside the new one — and a stopped cluster
// takes none anywhere, its goroutines gone.
func TestShardedCrashStopsEveryGroup(t *testing.T) {
	const n = 3
	run := func(t *testing.T, plan faultline.Plan, drill func(c *TCPCluster, counters [][]*stepCounter, rebuilt func() []*stepCounter)) {
		before := runtime.NumGoroutine()
		autos := make([]node.Automaton, n)
		counters := make([][]*stepCounter, n)
		for i := range autos {
			autos[i], counters[i] = countingProcess()
		}
		var mu sync.Mutex
		var next []*stepCounter
		c, err := NewTCPCluster(Config{N: n, Seed: 21, Quiet: true, Fault: mustInjector(t, n, 21, plan),
			Rebuild: func(node.ID) node.Automaton {
				a, cs := countingProcess()
				mu.Lock()
				next = cs
				mu.Unlock()
				return a
			}}, autos)
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		waitFor(t, 5*time.Second, func() bool { ticks, delivers := steps(counters[0]); return ticks > 20 && delivers > 20 }, "steps at p0")
		drill(c, counters, func() []*stepCounter { mu.Lock(); defer mu.Unlock(); return next })
		c.Stop()
		expectStill(t, "a stopped cluster", append(counters, next)...)
		waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= before }, fmt.Sprintf("goroutines back to %d", before))
	}
	crashedStill := func(t *testing.T, c *TCPCluster, counters [][]*stepCounter) {
		waitFor(t, 5*time.Second, func() bool { return crashed(c.stations[0]) }, "the crash")
		time.Sleep(20 * time.Millisecond) // a turn under way at the crash ends
		expectStill(t, "crashed sharded process", counters[0])
	}
	t.Run("Crash", func(t *testing.T) {
		run(t, faultline.Plan{}, func(c *TCPCluster, counters [][]*stepCounter, _ func() []*stepCounter) {
			c.Crash(0)
			crashedStill(t, c, counters)
		})
	})
	t.Run("CrashPlan", func(t *testing.T) {
		plan := faultline.Plan{Crashes: []faultline.Crash{{ID: 0, After: 100 * time.Millisecond}}}
		run(t, plan, func(c *TCPCluster, counters [][]*stepCounter, _ func() []*stepCounter) {
			crashedStill(t, c, counters)
		})
	})
	t.Run("RestartPlan", func(t *testing.T) {
		plan := faultline.Plan{Restarts: []faultline.Restart{{ID: 0, After: 100 * time.Millisecond, Downtime: 10 * time.Millisecond}}}
		run(t, plan, func(c *TCPCluster, counters [][]*stepCounter, rebuilt func() []*stepCounter) {
			waitFor(t, 5*time.Second, func() bool {
				ticks, delivers := steps(rebuilt())
				return ticks > 20 && delivers > 20
			}, "steps at p0's next incarnation")
			expectStill(t, "restarted sharded process's old incarnation", counters[0])
		})
	})
}

// recAuto records what it is delivered, with the id it has in its group,
// and echoes each message back to its sender.
type recAuto struct {
	env node.Env
	mu  sync.Mutex
	got []delivery
}

type delivery struct {
	from, self node.ID
	msg        node.Message
}

func (a *recAuto) Start(env node.Env) { a.env = env }
func (a *recAuto) Tick(string)        {}
func (a *recAuto) Deliver(from node.ID, m node.Message) {
	a.mu.Lock()
	a.got = append(a.got, delivery{from, a.env.ID(), m})
	a.mu.Unlock()
	a.env.Send(from, m)
}

func (a *recAuto) deliveries() []delivery {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]delivery(nil), a.got...)
}

// recStation runs physical process 1 of 3 as a 2-group sharded station
// over w, with a recAuto per group.
func recStation(t *testing.T, w sender) (*station, []*recAuto) {
	autos := make([]*recAuto, 2)
	s := newStation(1, 3, group.New(group.Config{Groups: 2, Build: func(g int) node.Automaton {
		autos[g] = &recAuto{}
		return autos[g]
	}}), w, time.Now(), func(string, ...any) {})
	t.Cleanup(runStation(s))
	return s, autos
}

// TestStationDemux drives wrapped messages through both ways in — a
// socket read's batch and a single delivery — and checks each lands on its
// own group's lane with ids rotated into the group's logical space, and
// that the echo leaves wrapped and rotated back to the physical space.
func TestStationDemux(t *testing.T) {
	w := &wireTap{}
	s, autos := recStation(t, w)
	a, b := core.LeaderMsg{Epoch: 1}, core.LeaderMsg{Epoch: 2}
	s.deliverAll([]event{{from: 2, msg: group.Wrap(0, a)}})
	s.deliver(2, group.Wrap(1, b))
	waitFor(t, 5*time.Second, func() bool { return w.count() == 2 }, "both echoes")

	// Physical sender 2 is logical 2 in group 0, where we are logical 1;
	// in group 1 it is logical 1, and we are logical 0.
	if d := autos[0].deliveries(); len(d) != 1 || d[0] != (delivery{2, 1, a}) {
		t.Fatalf("group 0 deliveries = %+v", d)
	}
	if d := autos[1].deliveries(); len(d) != 1 || d[0] != (delivery{1, 0, b}) {
		t.Fatalf("group 1 deliveries = %+v", d)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, h := range w.sent {
		gm, ok := h.m.(group.Msg)
		if !ok || h.to != 2 || (gm != group.Wrap(0, a) && gm != group.Wrap(1, b)) {
			t.Fatalf("echo %+v, want each group's own message wrapped and sent to physical 2", h)
		}
	}
}

// TestStationDropsMisrouted: a sharded process drops a bad group id, a
// nil inner message and an unwrapped message without a panic, and none of
// them reaches a group.
func TestStationDropsMisrouted(t *testing.T) {
	w := &wireTap{}
	s, autos := recStation(t, w)
	s.deliverAll([]event{{from: 2, msg: group.Wrap(-1, pingMsg())}, {from: 2, msg: group.Wrap(2, pingMsg())}})
	s.deliver(2, group.Msg{Group: 0})
	s.deliver(2, pingMsg())
	s.deliver(2, group.Wrap(0, core.LeaderMsg{Epoch: 9}))
	waitFor(t, 5*time.Second, func() bool { return w.count() == 1 }, "the well-routed message's echo")
	if d := autos[0].deliveries(); len(d) != 1 || d[0].msg != (core.LeaderMsg{Epoch: 9}) {
		t.Fatalf("group 0 deliveries = %+v, want the well-routed message alone", d)
	}
	if d := autos[1].deliveries(); len(d) != 0 {
		t.Fatalf("group 1 saw misrouted deliveries: %+v", d)
	}
}

// TestLaneTimers checks each lane has its own timers, firing on its own
// loop, and that StopTimer invalidates a pending expiry.
func TestLaneTimers(t *testing.T) {
	fired := make(chan string, 4)
	s := newStation(0, 3, group.New(group.Config{Groups: 2, Build: func(g int) node.Automaton {
		return &tickAuto{g: g, fired: fired}
	}}), discard{}, time.Now(), func(string, ...any) {})
	defer runStation(s)()
	select {
	case key := <-fired:
		if key != "g1-keep" {
			t.Fatalf("first firing = %q, want g1-keep (g0's was stopped)", key)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	select {
	case key := <-fired:
		t.Fatalf("stopped timer fired: %q", key)
	case <-time.After(100 * time.Millisecond):
	}
}

// tickAuto arms one timer per group at Start; group 0 immediately stops
// its own.
type tickAuto struct {
	g     int
	fired chan string
}

func (a *tickAuto) Start(env node.Env) {
	if a.g == 0 {
		env.SetTimer("g0-stop", 20*time.Millisecond)
		env.StopTimer("g0-stop")
		return
	}
	env.SetTimer("g1-keep", 20*time.Millisecond)
}
func (a *tickAuto) Deliver(node.ID, node.Message) {}
func (a *tickAuto) Tick(key string) {
	if key != node.TurnEnd {
		a.fired <- fmt.Sprintf("g%d-%s", a.g, key[3:])
	}
}

// TestRebootKeepsTheGroupCount: a sharded process's WAL directories are
// per group, so rebooting it with another number of groups, or unsharded,
// is refused.
func TestRebootKeepsTheGroupCount(t *testing.T) {
	sharded := func(g int) node.Automaton {
		return group.New(group.Config{Groups: g, Build: func(int) node.Automaton { return idleAutomaton{} }})
	}
	s := newStation(0, 3, sharded(2), discard{}, time.Now(), func(string, ...any) {})
	for name, a := range map[string]node.Automaton{"3 groups": sharded(3), "1 group": sharded(1), "unsharded": idleAutomaton{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a 2-group process rebooted with %s", name)
				}
			}()
			s.reboot(a)
		}()
	}
}
