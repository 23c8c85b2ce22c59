package scenario

import (
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
)

const ms = time.Millisecond

func TestBuildDefaults(t *testing.T) {
	s, err := Build(Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Config.Algorithm != AlgoCore || s.Config.Regime != RegimeAllTimely {
		t.Fatalf("defaults = %+v", s.Config)
	}
	if s.Config.Source != 0 {
		t.Fatalf("source = %v, want 0: Source has no default", s.Config.Source)
	}
	s.Run(500 * ms)
	rep := s.OmegaReport()
	if !rep.Holds || rep.Leader != 0 {
		t.Fatalf("default scenario did not converge: %+v", rep)
	}
}

func TestBuildValidation(t *testing.T) {
	cases := []Config{
		{N: 1},
		{N: 3, Algorithm: "nope"},
		{N: 3, Regime: "nope"},
		{N: 3, Source: 7},
		{N: 3, Source: -1},
		{N: 3, Crashes: []Crash{{ID: 9}}},
		{N: 3, Restarts: []Restart{{ID: 9}}},
		{N: 3, Restarts: []Restart{{ID: 0, Downtime: -1}}},
		{N: 3, Consensus: "paxos"},
	}
	for i, cfg := range cases {
		if _, err := Build(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestEveryAlgorithmBuildsAndConvergesOnTimelyLinks(t *testing.T) {
	for _, algo := range Algorithms() {
		algo := algo
		t.Run(string(algo), func(t *testing.T) {
			s, err := Build(Config{N: 4, Seed: 1, Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			s.Run(2 * time.Second)
			rep := s.OmegaReport()
			if !rep.Holds {
				t.Fatalf("%s did not converge on all-timely links: %s", algo, rep.Reason)
			}
		})
	}
}

func TestCoreEfficientBaselinesNot(t *testing.T) {
	for _, tc := range []struct {
		algo      Algorithm
		efficient bool
	}{
		{AlgoCore, true},
		{AlgoAllToAll, false},
		{AlgoSource, false},
	} {
		s, err := Build(Config{N: 5, Seed: 2, Algorithm: tc.algo})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(2 * time.Second)
		rep := s.CommEffReport(sim.At(1500 * ms))
		if rep.Efficient != tc.efficient {
			t.Fatalf("%s: Efficient = %v, want %v (senders %v)",
				tc.algo, rep.Efficient, tc.efficient, rep.Senders)
		}
	}
}

func TestCrashPlanApplied(t *testing.T) {
	s, err := Build(Config{
		N:       4,
		Seed:    3,
		Crashes: []Crash{{ID: 0, At: sim.At(100 * ms)}, {ID: 1, At: sim.At(200 * ms)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2 * time.Second)
	rep := s.OmegaReport()
	if !rep.Holds || rep.Leader != 2 {
		t.Fatalf("report = %+v, want leader p2", rep)
	}
	in := s.OmegaInput()
	if len(in.Crashed) != 2 {
		t.Fatalf("crashed map = %v", in.Crashed)
	}
}

// TestSourceZeroIsP0: Source means what it says, p0 included — the zero
// value is not read as unset.
func TestSourceZeroIsP0(t *testing.T) {
	cfg := Config{N: 4, Source: 0, Regime: RegimeSourceReliable, Delta: 2 * ms, MaxDelay: 60 * ms}
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	et := network.EventuallyTimely(cfg.Delta, cfg.MaxDelay, 0)
	for from := 0; from < cfg.N; from++ {
		for to := 0; to < cfg.N; to++ {
			if from == to {
				continue
			}
			if got := s.World.Fabric.Profile(from, to); (got == et) != (from == 0) {
				t.Errorf("link %d→%d = %+v; only p0's outgoing links are eventually timely", from, to, got)
			}
		}
	}
}

func TestSourceReliableRegime(t *testing.T) {
	s, err := Build(Config{N: 4, Source: 3, Seed: 4, Regime: RegimeSourceReliable, MaxDelay: 60 * ms})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(20 * time.Second)
	rep := s.OmegaReport()
	if !rep.Holds {
		t.Fatalf("core under source-reliable did not converge: %s", rep.Reason)
	}
	ce := s.CommEffReport(sim.At(19 * time.Second))
	if !ce.Efficient {
		t.Fatalf("not communication-efficient in tail: senders %v", ce.Senders)
	}
}

func TestSourceFairLossyRegimeSourceAlgo(t *testing.T) {
	s, err := Build(Config{
		N: 4, Source: 3, Seed: 5, Algorithm: AlgoSource,
		Regime: RegimeSourceFairLossy, MaxDelay: 40 * ms, DropProb: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(60 * time.Second)
	rep := s.OmegaReport()
	if !rep.Holds {
		t.Fatalf("source algorithm under fair-lossy did not converge: %s", rep.Reason)
	}
	if rep.StabilizedAt > sim.At(40*time.Second) {
		t.Fatalf("stabilized too late: %v", rep.StabilizedAt)
	}
}

func TestTimelyPathRegimeNeedsRelay(t *testing.T) {
	// Only a relayed algorithm stabilizes when timeliness exists solely
	// along a path through the hub.
	relayed, err := Build(Config{N: 4, Source: 3, Seed: 9, Algorithm: AlgoCoreRelay, Regime: RegimeTimelyPath, MaxDelay: 30 * ms})
	if err != nil {
		t.Fatal(err)
	}
	relayed.Run(30 * time.Second)
	rep := relayed.OmegaReport()
	if !rep.Holds || rep.StabilizedAt > sim.At(20*time.Second) {
		t.Fatalf("relayed core did not stabilize on timely-path regime: %+v", rep)
	}

	bare, err := Build(Config{N: 4, Source: 3, Seed: 9, Algorithm: AlgoCore, Regime: RegimeTimelyPath, MaxDelay: 30 * ms})
	if err != nil {
		t.Fatal(err)
	}
	bare.Run(30 * time.Second)
	bareRep := bare.OmegaReport()
	if bareRep.Holds && bareRep.StabilizedAt <= sim.At(20*time.Second) {
		t.Fatalf("bare core unexpectedly stabilized without timely links: %+v", bareRep)
	}
}

func TestLeadersSnapshot(t *testing.T) {
	s, err := Build(Config{N: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(time.Second)
	leaders := s.Leaders()
	if len(leaders) != 3 {
		t.Fatalf("leaders = %v", leaders)
	}
	for i, l := range leaders {
		if l != 0 {
			t.Fatalf("p%d leader = %v, want p0", i, l)
		}
	}
}

func TestRunIsIncremental(t *testing.T) {
	s, err := Build(Config{N: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(100 * ms)
	first := s.World.Kernel.Now()
	s.Run(100 * ms)
	if got := s.World.Kernel.Now(); got != first.Add(100*ms) {
		t.Fatalf("second Run ended at %v, want %v", got, first.Add(100*ms))
	}
}

func TestGSTDelaysConvergence(t *testing.T) {
	late, err := Build(Config{N: 4, Seed: 8, Regime: RegimeAllET, GST: sim.At(500 * ms)})
	if err != nil {
		t.Fatal(err)
	}
	late.Run(5 * time.Second)
	lateRep := late.OmegaReport()
	if !lateRep.Holds {
		t.Fatalf("late-GST run did not converge: %s", lateRep.Reason)
	}

	early, err := Build(Config{N: 4, Seed: 8, Regime: RegimeAllET, GST: 0})
	if err != nil {
		t.Fatal(err)
	}
	early.Run(5 * time.Second)
	earlyRep := early.OmegaReport()
	if !earlyRep.Holds {
		t.Fatalf("early-GST run did not converge: %s", earlyRep.Reason)
	}
	if lateRep.StabilizedAt <= earlyRep.StabilizedAt {
		t.Fatalf("GST=500ms stabilized at %v, GST=0 at %v; expected later stabilization",
			lateRep.StabilizedAt, earlyRep.StabilizedAt)
	}
}

func TestCrashedProcessExcludedFromChecks(t *testing.T) {
	s, err := Build(Config{N: 2, Seed: 9, Crashes: []Crash{{ID: 1, At: sim.At(50 * ms)}}})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(time.Second)
	rep := s.OmegaReport()
	if !rep.Holds || rep.Leader != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if !s.World.Alive(node.ID(0)) || s.World.Alive(node.ID(1)) {
		t.Fatal("alive bookkeeping wrong")
	}
}
