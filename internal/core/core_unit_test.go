package core

import (
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
)

// startDetector boots a detector on a fake env and clears boot traffic.
func startDetector(id node.ID, n int, opts ...Option) (*Detector, *fakeEnv) {
	d := New(opts...)
	env := newFakeEnv(id, n)
	d.Start(env)
	return d, env
}

func TestInitialLeaderIsLowestID(t *testing.T) {
	for id := 0; id < 3; id++ {
		d, _ := startDetector(node.ID(id), 3)
		if got := d.Leader(); got != 0 {
			t.Fatalf("p%d initial leader = %v, want p0", id, got)
		}
	}
}

func TestSelfBelievedLeaderBroadcastsOnHeartbeat(t *testing.T) {
	d, env := startDetector(0, 4)
	env.drain() // boot announcement
	d.Tick(timerHeartbeat)
	msgs := env.drain()
	if len(msgs) != 3 {
		t.Fatalf("heartbeat sent %d messages, want 3", len(msgs))
	}
	for _, s := range msgs {
		lm, ok := s.msg.(LeaderMsg)
		if !ok {
			t.Fatalf("sent %T, want LeaderMsg", s.msg)
		}
		if lm.Epoch != 0 {
			t.Fatalf("epoch = %d, want 0", lm.Epoch)
		}
	}
	if !env.armed(timerHeartbeat) {
		t.Fatal("heartbeat timer not re-armed")
	}
}

func TestNonLeaderStaysSilentOnHeartbeat(t *testing.T) {
	d, env := startDetector(2, 4)
	env.drain()
	d.Tick(timerHeartbeat)
	if msgs := env.drain(); len(msgs) != 0 {
		t.Fatalf("non-leader sent %d messages on heartbeat", len(msgs))
	}
	if !env.armed(timerMonitor) {
		t.Fatal("non-leader is not monitoring the leader")
	}
}

func TestBootAnnouncement(t *testing.T) {
	_, env := startDetector(0, 3)
	msgs := env.drain()
	if len(msgs) != 2 {
		t.Fatalf("boot broadcast %d messages, want 2", len(msgs))
	}
}

func TestTimeoutAccusesLeader(t *testing.T) {
	d, env := startDetector(1, 3)
	env.drain()
	d.Tick(timerMonitor)
	msgs := env.drain()
	// One ACCUSE to p0, plus a boot announcement now that p1 thinks it
	// leads (counter[0]=1 makes p1 the argmin).
	var accuses, leaders int
	for _, s := range msgs {
		switch m := s.msg.(type) {
		case AccuseMsg:
			accuses++
			if s.to != 0 {
				t.Fatalf("accusation sent to p%d, want p0", s.to)
			}
			if m.Epoch != 0 {
				t.Fatalf("accusation epoch = %d, want 0", m.Epoch)
			}
		case LeaderMsg:
			leaders++
		}
	}
	if accuses != 1 {
		t.Fatalf("accusations = %d, want 1", accuses)
	}
	if leaders != 2 {
		t.Fatalf("leadership announcements = %d, want 2", leaders)
	}
	if d.Leader() != 1 {
		t.Fatalf("leader after accusing p0 = %v, want self", d.Leader())
	}
	if d.Counter(0) != 1 {
		t.Fatalf("counter[0] = %d, want 1", d.Counter(0))
	}
	if d.AccusationsSent() != 1 {
		t.Fatalf("AccusationsSent = %d", d.AccusationsSent())
	}
}

func TestTimeoutPrefersNextCandidateOverSelf(t *testing.T) {
	// p2 times out on p0; the next argmin is p1 (counter 0), not p2.
	d, env := startDetector(2, 3)
	env.drain()
	d.Tick(timerMonitor)
	if d.Leader() != 1 {
		t.Fatalf("leader = %v, want p1", d.Leader())
	}
	if !env.armed(timerMonitor) {
		t.Fatal("not monitoring the new leader")
	}
}

func TestLeaderMsgMergesEpochAndRefreshesWatchdog(t *testing.T) {
	d, env := startDetector(1, 3)
	env.drain()
	env.StopTimer(timerMonitor)
	d.Deliver(0, LeaderMsg{Epoch: 0})
	if !env.armed(timerMonitor) {
		t.Fatal("heartbeat from leader did not refresh watchdog")
	}
	d.Deliver(0, LeaderMsg{Epoch: 7})
	if d.Counter(0) != 7 {
		t.Fatalf("counter[0] = %d, want 7 (max-merge)", d.Counter(0))
	}
	// Lower epochs must not roll the counter back.
	d.Deliver(0, LeaderMsg{Epoch: 3})
	if d.Counter(0) != 7 {
		t.Fatalf("counter[0] = %d after stale heartbeat, want 7", d.Counter(0))
	}
}

func TestHeartbeatFromNonLeaderDoesNotRefreshWatchdog(t *testing.T) {
	// If the watchdog were refreshed by any traffic, a silent leader
	// could be masked forever by a chatty non-leader.
	d, env := startDetector(2, 4)
	env.drain()
	env.StopTimer(timerMonitor)
	d.Deliver(3, LeaderMsg{Epoch: 5}) // p3 is not p2's leader (p0 is)
	if d.Leader() != 0 {
		t.Fatalf("leader = %v, want p0", d.Leader())
	}
	if env.armed(timerMonitor) {
		t.Fatal("watchdog refreshed by non-leader heartbeat")
	}
}

func TestDemotionOnBetterCandidate(t *testing.T) {
	// p0 believes it leads; an accusation pushes its counter past p1's,
	// so p0 must demote itself and start monitoring p1.
	d, env := startDetector(0, 3)
	env.drain()
	d.Deliver(2, AccuseMsg{Epoch: 0})
	if d.Counter(0) != 1 {
		t.Fatalf("counter[self] = %d, want 1", d.Counter(0))
	}
	if d.Leader() != 1 {
		t.Fatalf("leader = %v, want p1 after self-demotion", d.Leader())
	}
	if !env.armed(timerMonitor) {
		t.Fatal("demoted leader is not monitoring its successor")
	}
	d.Tick(timerHeartbeat)
	for _, s := range env.drain() {
		if _, ok := s.msg.(LeaderMsg); ok {
			t.Fatal("demoted leader still broadcasting")
		}
	}
}

func TestEpochGuardIgnoresStaleAccusations(t *testing.T) {
	d, _ := startDetector(0, 2)
	d.Deliver(1, AccuseMsg{Epoch: 0})
	if d.Counter(0) != 1 {
		t.Fatalf("counter = %d, want 1", d.Counter(0))
	}
	// A duplicate accusation for epoch 0 must be ignored.
	d.Deliver(1, AccuseMsg{Epoch: 0})
	if d.Counter(0) != 1 {
		t.Fatalf("counter = %d after duplicate, want 1", d.Counter(0))
	}
	// An accusation for a future epoch fast-forwards.
	d.Deliver(1, AccuseMsg{Epoch: 5})
	if d.Counter(0) != 6 {
		t.Fatalf("counter = %d, want 6", d.Counter(0))
	}
}

func TestWithoutEpochGuardInflatesCounter(t *testing.T) {
	d, _ := startDetector(0, 2, WithoutEpochGuard())
	d.Deliver(1, AccuseMsg{Epoch: 0})
	d.Deliver(1, AccuseMsg{Epoch: 0})
	d.Deliver(1, AccuseMsg{Epoch: 0})
	if d.Counter(0) != 3 {
		t.Fatalf("counter = %d, want 3 (no guard)", d.Counter(0))
	}
}

func TestTimeoutGrowth(t *testing.T) {
	eta := 10 * time.Millisecond
	d, env := startDetector(1, 2, WithEta(eta))
	env.drain()
	first := env.timers[timerMonitor]
	// Round 1: p1 accuses p0 and takes over; an accusation against p1
	// then hands leadership back to p0 (tie broken by id), so p1 arms a
	// fresh watchdog on p0 with the grown timeout.
	d.Tick(timerMonitor)
	d.Deliver(0, AccuseMsg{Epoch: 0})
	if got, want := env.timers[timerMonitor], first+eta; got != want {
		t.Fatalf("timeout after one accusation = %v, want %v", got, want)
	}
	// Round 2 grows it again.
	d.Tick(timerMonitor)
	d.Deliver(0, AccuseMsg{Epoch: 1})
	if got, want := env.timers[timerMonitor], first+2*eta; got != want {
		t.Fatalf("timeout after two accusations = %v, want %v", got, want)
	}
}

func TestWithoutTimeoutGrowthKeepsTimeoutFixed(t *testing.T) {
	d, env := startDetector(1, 2, WithoutTimeoutGrowth())
	env.drain()
	first := env.timers[timerMonitor]
	d.Tick(timerMonitor)
	d.Deliver(0, AccuseMsg{Epoch: 0}) // hands leadership back to p0
	second := env.timers[timerMonitor]
	if second != first {
		t.Fatalf("timeout changed without growth: %v → %v", first, second)
	}
}

func TestWithoutAccuseMessagesBumpsOnlyLocally(t *testing.T) {
	d, env := startDetector(1, 2, WithoutAccuseMessages())
	env.drain()
	d.Tick(timerMonitor)
	for _, s := range env.drain() {
		if _, ok := s.msg.(AccuseMsg); ok {
			t.Fatal("ablation still sent an ACCUSE message")
		}
	}
	if d.Counter(0) != 1 {
		t.Fatalf("local counter = %d, want 1", d.Counter(0))
	}
	if d.AccusationsSent() != 0 {
		t.Fatal("AccusationsSent counted without messages")
	}
}

func TestStaleMonitorTickWhileLeaderIsHarmless(t *testing.T) {
	d, env := startDetector(0, 2)
	env.drain()
	// p0 is its own leader; a stray monitor tick must not accuse anyone.
	d.Tick(timerMonitor)
	if msgs := env.drain(); len(msgs) != 0 {
		t.Fatalf("stray tick sent %v", msgs)
	}
	if d.Leader() != 0 {
		t.Fatalf("leader = %v", d.Leader())
	}
}

func TestUnknownMessageIgnored(t *testing.T) {
	d, env := startDetector(1, 2)
	env.drain()
	d.Deliver(0, pingMsg{})
	if msgs := env.drain(); len(msgs) != 0 {
		t.Fatalf("unknown message triggered sends: %v", msgs)
	}
	if d.Leader() != 0 {
		t.Fatal("unknown message changed the leader")
	}
}

type pingMsg struct{}

func (pingMsg) KindID() obs.Kind { return obs.Intern("PING") }

func TestHistoryRecordsTransitions(t *testing.T) {
	d, env := startDetector(1, 3)
	env.advance(time.Millisecond)
	d.Tick(timerMonitor) // leader p0 → p1? argmin after bump is p1
	changes := d.History().Changes()
	if len(changes) != 2 {
		t.Fatalf("changes = %v, want boot + one transition", changes)
	}
	if changes[0].Leader != 0 || changes[1].Leader != 1 {
		t.Fatalf("changes = %v, want p0 then p1", changes)
	}
}

func TestTieBreakByID(t *testing.T) {
	d, _ := startDetector(2, 3)
	// All counters equal → lowest id wins.
	if d.Leader() != 0 {
		t.Fatalf("leader = %v, want p0 on all-zero counters", d.Leader())
	}
	// counter[0]=1, counter[1]=1, counter[2]=0 → p2.
	d.Deliver(0, LeaderMsg{Epoch: 1})
	d.Deliver(1, LeaderMsg{Epoch: 1})
	if d.Leader() != 2 {
		t.Fatalf("leader = %v, want p2", d.Leader())
	}
}

func TestNewPanicsOnBadEta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for eta <= 0")
		}
	}()
	New(WithEta(-time.Second))
}
