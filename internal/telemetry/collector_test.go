package telemetry

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// fakeClock is a settable collector clock for deterministic tests.
type fakeClock struct{ t sim.Time }

func (f *fakeClock) now() sim.Time       { return f.t }
func (f *fakeClock) set(d time.Duration) { f.t = sim.At(d) }

// The three events the election tracker consumes, as a runtime and the
// Attach adapters emit them.
func leaderChange(c *Collector, t sim.Time, proc, leader int) {
	c.OnEvent(obs.Event{T: t, What: obs.LeaderChange, Proc: proc, Peer: leader})
}
func down(c *Collector, t sim.Time, proc int) {
	c.OnEvent(obs.Event{T: t, What: obs.Down, Proc: proc, Peer: -1})
}
func up(c *Collector, t sim.Time, proc int) {
	c.OnEvent(obs.Event{T: t, What: obs.Up, Proc: proc, Peer: -1})
}
func decided(c *Collector, proc int, elapsed time.Duration) {
	c.OnEvent(obs.Event{What: obs.Decide, Proc: proc, Peer: -1, Dur: elapsed})
}

// TestElectionEventsBecomeGauges: the agreement rule itself is
// obs.Agreement's (and tested there); this pins what the collector makes
// of its verdicts — the leader gauge, the reign counter, the downtime
// histogram, the time since the last election — through a leader crash
// and a rejoin.
func TestElectionEventsBecomeGauges(t *testing.T) {
	clk := &fakeClock{}
	c := New(3)
	c.AttachStats(metrics.NewMessageStats(3), clk.now)

	if _, ok := c.Leader(); ok {
		t.Fatal("leader agreed before any reports")
	}
	if _, ok := c.TimeSinceLastElection(); ok {
		t.Fatal("TimeSinceLastElection before any election")
	}

	// Initial election: processes converge on 0 one by one; the downtime
	// span runs from time zero to the last report.
	leaderChange(c, sim.At(10*time.Millisecond), 0, 0)
	leaderChange(c, sim.At(20*time.Millisecond), 1, 0)
	if _, ok := c.Leader(); ok {
		t.Fatal("agreement with one process still undecided")
	}
	leaderChange(c, sim.At(30*time.Millisecond), 2, 0)
	if l, ok := c.Leader(); !ok || l != 0 {
		t.Fatalf("leader = %v/%v, want 0/true", l, ok)
	}
	if c.Elections() != 1 {
		t.Fatalf("elections = %d, want 1", c.Elections())
	}
	dt := c.Hist(ElectionDowntime)
	if dt.Count != 1 || dt.Max != 30*time.Millisecond {
		t.Fatalf("downtime snapshot = count %d max %v, want 1/30ms", dt.Count, dt.Max)
	}
	clk.set(50 * time.Millisecond)
	if since, ok := c.TimeSinceLastElection(); !ok || since != 20*time.Millisecond {
		t.Fatalf("TimeSinceLastElection = %v/%v, want 20ms", since, ok)
	}

	// The leader crashes at 1s: the downtime clock starts at the crash even
	// though the survivors' outputs have not moved yet.
	down(c, sim.At(time.Second), 0)
	if _, ok := c.Leader(); ok {
		t.Fatal("crashed leader still counted as agreed")
	}
	if _, ok := c.TimeSinceLastElection(); ok {
		t.Fatal("TimeSinceLastElection during dispute")
	}
	leaderChange(c, sim.At(1300*time.Millisecond), 1, 1)
	leaderChange(c, sim.At(1500*time.Millisecond), 2, 1)
	if l, ok := c.Leader(); !ok || l != 1 {
		t.Fatalf("leader = %v/%v, want 1/true", l, ok)
	}
	dt = c.Hist(ElectionDowntime)
	if dt.Count != 2 || dt.Max != 500*time.Millisecond {
		t.Fatalf("downtime = count %d max %v, want 2/500ms (crash → reform)", dt.Count, dt.Max)
	}

	// It rejoins at 2s with no output: agreement is withheld until it
	// converges, and that span is an election's downtime too.
	up(c, sim.At(2*time.Second), 0)
	if _, ok := c.Leader(); ok {
		t.Fatal("agreement held while the rejoined process has no leader output")
	}
	leaderChange(c, sim.At(2015*time.Millisecond), 0, 1)
	if l, ok := c.Leader(); !ok || l != 1 {
		t.Fatalf("leader after rejoin = %v/%v, want 1/true", l, ok)
	}
	if dt = c.Hist(ElectionDowntime); dt.Count != 3 || c.Elections() != 3 {
		t.Fatalf("downtime count %d, elections %d, want 3/3", dt.Count, c.Elections())
	}
	if c.LeaderChanges() != 6 {
		t.Fatalf("leaderChanges = %d, want 6", c.LeaderChanges())
	}

	// Duplicate reports are ignored.
	leaderChange(c, sim.At(3*time.Second), 0, 1)
	down(c, sim.At(3*time.Second), 2)
	down(c, sim.At(3*time.Second), 2)
	if c.LeaderChanges() != 6 || c.Elections() != 3 {
		t.Fatal("duplicate reports changed state")
	}
	if h := c.Health(); !h.Agreed || h.Leader != 1 || h.Epoch != 3 {
		t.Fatalf("health = %+v, want agreed on 1 in epoch 3", h)
	}
}

func TestHeartbeatJitter(t *testing.T) {
	c := New(2)
	hb := obs.Intern("LEADER")
	other := obs.Intern("RSM-ACCEPT")

	c.OnDeliver(sim.At(0), 0, 1, hb) // first delivery: no interval yet
	c.OnDeliver(sim.At(5*time.Millisecond), 0, 1, hb)
	c.OnDeliver(sim.At(11*time.Millisecond), 0, 1, hb)
	c.OnDeliver(sim.At(12*time.Millisecond), 0, 1, other) // not a heartbeat
	s := c.Hist(HeartbeatInterarrival)
	if s.Count != 2 {
		t.Fatalf("jitter count = %d, want 2", s.Count)
	}
	if s.Max != 6*time.Millisecond {
		t.Fatalf("jitter max = %v, want 6ms", s.Max)
	}

	// Per-link tracking: the 1→0 direction is independent.
	c.OnDeliver(sim.At(100*time.Millisecond), 1, 0, hb)
	if c.Hist(HeartbeatInterarrival).Count != 2 {
		t.Fatal("first delivery on a fresh link recorded an interval")
	}
}

func TestQuiescenceGauges(t *testing.T) {
	clk := &fakeClock{}
	stats := metrics.NewMessageStats(3)
	c := New(3)
	c.AttachStats(stats, clk.now)

	leaderKind := obs.Intern("LEADER")
	accuse := obs.Intern("ACCUSE")

	// Pre-stabilization chatter: everyone sends.
	stats.OnSend(sim.At(time.Millisecond), 1, 0, leaderKind)
	stats.OnSend(sim.At(time.Millisecond), 2, 0, accuse)
	stats.OnSend(sim.At(2*time.Millisecond), 0, 1, leaderKind)
	stats.OnSend(sim.At(2*time.Millisecond), 0, 2, leaderKind)
	clk.set(3 * time.Millisecond)
	if got := c.ActiveLinks(); got != 4 {
		t.Fatalf("active links = %d, want 4", got)
	}

	// No leader yet: everyone is a non-leader.
	if got := c.NonLeaderSends(); got != 4 {
		t.Fatalf("non-leader sends = %d, want 4", got)
	}

	// Leader 0 agreed: only processes 1 and 2 count, and excluding
	// accusations discounts process 2's message.
	for id := 0; id < 3; id++ {
		leaderChange(c, sim.At(3*time.Millisecond), id, 0)
	}
	if got := c.NonLeaderSends(); got != 2 {
		t.Fatalf("non-leader sends = %d, want 2", got)
	}
	if got := c.NonLeaderSends("ACCUSE"); got != 1 {
		t.Fatalf("non-leader sends excl accuse = %d, want 1", got)
	}

	// Steady state: only the leader's links stay active once the window
	// slides past the early chatter.
	stats.OnSend(sim.At(1500*time.Millisecond), 0, 1, leaderKind)
	stats.OnSend(sim.At(1500*time.Millisecond), 0, 2, leaderKind)
	clk.set(QuiescenceWindow + 550*time.Millisecond)
	if got := c.ActiveLinks(); got != 2 {
		t.Fatalf("active links = %d in steady state, want n-1 = 2", got)
	}
	if got := c.NonLeaderSends("ACCUSE"); got != 1 {
		t.Fatal("non-leader sends moved in steady state")
	}
}

func TestCollectorWithoutStats(t *testing.T) {
	c := New(2)
	leaderChange(c, sim.At(time.Millisecond), 0, 0)
	leaderChange(c, sim.At(time.Millisecond), 1, 0)
	if c.ActiveLinks() != 0 || c.NonLeaderSends() != 0 {
		t.Fatal("gauges without stats should read zero")
	}
	if since, ok := c.TimeSinceLastElection(); ok || since != 0 {
		t.Fatalf("TimeSinceLastElection without a clock = %v/%v, want 0/false", since, ok)
	}
}

func TestDecided(t *testing.T) {
	c := New(3)
	decided(c, 1, 4*time.Millisecond)
	decided(c, 2, 0) // follower learn: latency unknown
	if c.Decides() != 2 {
		t.Fatalf("decides = %d, want 2", c.Decides())
	}
	s := c.Hist(DecisionLatency)
	if s.Count != 1 || s.Max != 4*time.Millisecond {
		t.Fatalf("decision latency = count %d max %v, want 1/4ms", s.Count, s.Max)
	}
}

func TestDecidedPerCommandLatency(t *testing.T) {
	// A batched instance fans out one Decision per command, each with its
	// own enqueue-to-apply latency; the collector must count and bucket
	// every command, not just the instance.
	c := New(3)
	rec := &consensus.Recorder{Split: func(cmds []consensus.Value, v consensus.Value) []consensus.Value {
		for _, c := range strings.Split(string(v), ",") {
			cmds = append(cmds, consensus.Value(c))
		}
		return cmds
	}}
	Attach(c, c, Process{ID: 0, Recorder: rec})
	at := sim.At(10 * time.Millisecond)
	rec.RecordInstance(7, "a,b,c", at, 0, []sim.Time{at - sim.At(3*time.Millisecond), at - sim.At(5*time.Millisecond), at - sim.At(9*time.Millisecond)})
	rec.RecordInstance(7, "d,e,f", at, 0, []sim.Time{0, 0, 0}) // a repeat of the instance: ignored
	if c.Decides() != 3 {
		t.Fatalf("decides = %d, want one per command", c.Decides())
	}
	s := c.Hist(DecisionLatency)
	if s.Count != 3 || s.Max < 9*time.Millisecond || s.Max >= 18*time.Millisecond {
		t.Fatalf("decision latency = count %d max %v, want 3 commands / ~9ms max", s.Count, s.Max)
	}
}

// TestCollectorRaceStress exercises every reader against every writer
// concurrently; its value is under -race (see make test-race / CI).
func TestCollectorRaceStress(t *testing.T) {
	const n = 4
	stats := metrics.NewMessageStats(n)
	const iters = 3000
	c := New(n)
	c.AttachStats(stats, func() sim.Time { return sim.At(iters * time.Microsecond) })
	hb := obs.Intern("LEADER")

	var wg sync.WaitGroup
	worker := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fn(i)
			}
		}()
	}
	worker(func(i int) {
		from, to := i%n, (i+1)%n
		ts := sim.At(time.Duration(i) * time.Microsecond)
		stats.OnSend(ts, from, to, hb)
		c.OnDeliver(ts, from, to, hb)
	})
	worker(func(i int) {
		leaderChange(c, sim.At(time.Duration(i)*time.Microsecond), i%n, i%2)
		if i%50 == 0 {
			down(c, sim.At(time.Duration(i)*time.Microsecond), i%n)
			up(c, sim.At(time.Duration(i)*time.Microsecond), i%n)
		}
	})
	worker(func(i int) {
		c.OnEvent(obs.Event{What: obs.Decide, Proc: i % n, Peer: -1, Dur: time.Duration(i%100) * time.Microsecond, N: i%3 - 1})
	})
	worker(func(i int) {
		if i%100 != 0 { // readers are heavier; sample
			return
		}
		c.WritePrometheus(io.Discard)
		_ = c.Health()
		_, _ = c.Leader()
		_ = c.ActiveLinks()
		_ = c.NonLeaderSends("ACCUSE")
		_ = c.Hist(HeartbeatInterarrival)
	})
	wg.Wait()

	if c.Decides() != iters {
		t.Fatalf("decides = %d, want %d", c.Decides(), iters)
	}
	if c.Hist(HeartbeatInterarrival).Count == 0 {
		t.Fatal("no heartbeat intervals recorded under stress")
	}
}
