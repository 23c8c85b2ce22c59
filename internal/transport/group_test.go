package transport

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/group"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/faultline"
	"repro/internal/node"
)

// groupCluster is the cluster surface the sharded tests drive, satisfied
// by both the mem and TCP clusters.
type groupCluster interface {
	Start()
	Stop()
	Inject(from, to node.ID, m node.Message)
}

// buildGroupFleet constructs n sharded processes: each runs a group.Engine
// with one Omega detector + rsm.Node per group, rotated into the group's
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

// haltGroupFleet quiesces every engine's group loops; deferred after
// cluster Stop so in-flight loop goroutines never outlive the test.
func haltGroupFleet(autos []node.Automaton) {
	for _, a := range autos {
		a.(*group.Engine).Halt()
	}
}

// runGroupSharded is the multi-group smoke test: G groups over one shared
// cluster each stabilize on a *different* physical leader (the id
// rotation), decide their own command stream, and never leak a decision
// into another group's log.
func runGroupSharded(t *testing.T, groups int, build func(autos []node.Automaton) groupCluster) {
	const n = 3
	const perGroup = 5
	autos, dets, logs := buildGroupFleet(n, groups, 10*time.Millisecond)
	c := build(autos)
	c.Start()
	defer haltGroupFleet(autos)
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

func TestMemGroupSharded(t *testing.T) {
	runGroupSharded(t, 2, func(autos []node.Automaton) groupCluster {
		c, err := NewCluster(Config{N: 3, Seed: 11, Quiet: true}, autos)
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
}

// TestTCPGroupSharded additionally asserts the shared-socket property from
// counters: a 4-group cluster still holds exactly one TCP connection per
// directed peer pair, and no link ever re-dialed.
func TestTCPGroupSharded(t *testing.T) {
	var tc *TCPCluster
	runGroupSharded(t, 4, func(autos []node.Automaton) groupCluster {
		c, err := NewTCPCluster(Config{N: 3, Seed: 11, Quiet: true}, autos)
		if err != nil {
			t.Fatal(err)
		}
		tc = c
		return c
	})
	// runGroupSharded has stopped the cluster; the counters are final.
	// Receiver-side conns are closed by Stop, but every directed link must
	// have dialed exactly once over the whole run: 4 groups' frames shared
	// n*(n-1) = 6 sockets.
	if got, want := tc.Dials(), uint64(3*2); got != want {
		t.Fatalf("lifetime dials = %d, want %d (one per directed pair, shared across groups)", got, want)
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
	defer haltGroupFleet(autos)
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

// runGroupIsolation is the cross-group fault-isolation drill: isolate the
// physical process that leads group 0 and prove (a) group 1 — whose quorum
// is untouched — keeps deciding throughout the victim group's outage,
// without ever re-electing; (b) only group 0 re-elects, and it recovers.
func runGroupIsolation(t *testing.T, build func(inj *faultline.Injector, autos []node.Automaton) groupCluster) {
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
	c := build(inj, autos)
	c.Start()
	defer haltGroupFleet(autos)
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

func TestMemGroupIsolation(t *testing.T) {
	runGroupIsolation(t, func(inj *faultline.Injector, autos []node.Automaton) groupCluster {
		c, err := NewCluster(Config{N: 3, Seed: 7, Quiet: true, Fault: inj}, autos)
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
}

func TestTCPGroupIsolation(t *testing.T) {
	runGroupIsolation(t, func(inj *faultline.Injector, autos []node.Automaton) groupCluster {
		c, err := NewTCPCluster(Config{N: 3, Seed: 7, Quiet: true, Fault: inj}, autos)
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
}
