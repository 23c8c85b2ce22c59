package scenario

import (
	"testing"
	"time"

	"repro/internal/faultline"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
)

// TestLiveFaultPlanMirrorsRegimes checks that every named regime maps to
// the same per-link profiles Build installs in the simulator, and that the
// resulting plan is accepted by faultline.New.
func TestLiveFaultPlanMirrorsRegimes(t *testing.T) {
	base := Config{N: 4, Source: 3, Seed: 1, Eta: 10 * time.Millisecond, Delta: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond, DropProb: 0.25}
	for _, regime := range Regimes() {
		cfg := base
		cfg.Regime = regime
		plan, err := LiveFaultPlan(cfg)
		if err != nil {
			t.Fatalf("%s: %v", regime, err)
		}
		if _, err := faultline.New(cfg.N, cfg.Seed, plan); err != nil {
			t.Fatalf("%s: plan rejected by faultline: %v", regime, err)
		}
		s, err := Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", regime, err)
		}
		for from := 0; from < cfg.N; from++ {
			for to := 0; to < cfg.N; to++ {
				if from == to {
					continue
				}
				want, ok := plan.Links[faultline.Link{From: node.ID(from), To: node.ID(to)}]
				if !ok {
					want = plan.Default
				}
				if got := s.World.Fabric.Profile(from, to); got != want {
					t.Fatalf("%s: sim link %d→%d = %+v, live plan %+v", regime, from, to, got, want)
				}
			}
		}
	}

	cfg := base
	cfg.Regime = RegimeAllTimely
	plan, _ := LiveFaultPlan(cfg)
	if want := network.Timely(cfg.Delta); plan.Default != want {
		t.Fatalf("all-timely default = %+v, want %+v", plan.Default, want)
	}
	if len(plan.Links) != 0 {
		t.Fatalf("all-timely has %d link overrides", len(plan.Links))
	}

	cfg.Regime = RegimeSourceReliable
	plan, _ = LiveFaultPlan(cfg)
	// The source's outgoing links carry the ET profile.
	src := cfg.Source
	et := network.EventuallyTimely(cfg.Delta, cfg.MaxDelay, 0)
	if want := network.Reliable(cfg.Delta, cfg.MaxDelay); plan.Default != want {
		t.Fatalf("source-reliable default = %+v, want %+v", plan.Default, want)
	}
	if len(plan.Links) != cfg.N-1 {
		t.Fatalf("source-reliable overrides %d links, want %d", len(plan.Links), cfg.N-1)
	}
	for q := 0; q < cfg.N; q++ {
		if node.ID(q) == src {
			continue
		}
		if got := plan.Links[faultline.Link{From: src, To: node.ID(q)}]; got != et {
			t.Fatalf("source link %d→%d = %+v, want ET", src, q, got)
		}
	}

	cfg.Regime = RegimeTimelyPath
	plan, _ = LiveFaultPlan(cfg)
	hub := node.ID((int(src) + cfg.N - 1) % cfg.N)
	timely := network.Timely(cfg.Delta)
	if got := plan.Links[faultline.Link{From: src, To: hub}]; got != timely {
		t.Fatalf("src→hub = %+v, want timely", got)
	}
	if got := plan.Links[faultline.Link{From: hub, To: 0}]; got != timely {
		t.Fatalf("hub→0 = %+v, want timely", got)
	}
	if plan.Default != network.FairLossy(cfg.Delta, cfg.MaxDelay, 0.9) {
		t.Fatalf("timely-path default = %+v", plan.Default)
	}
}

func TestLiveFaultPlanCarriesGSTAndCrashes(t *testing.T) {
	cfg := Config{
		N:       3,
		Regime:  RegimeAllET,
		GST:     sim.Time(250 * time.Millisecond),
		Crashes: []Crash{{ID: 1, At: sim.Time(40 * time.Millisecond)}},
	}
	plan, err := LiveFaultPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.GST != 250*time.Millisecond {
		t.Fatalf("GST = %v", plan.GST)
	}
	if len(plan.Crashes) != 1 || plan.Crashes[0].ID != 1 || plan.Crashes[0].After != 40*time.Millisecond {
		t.Fatalf("crashes = %+v", plan.Crashes)
	}
}

// TestLiveFaultPlanCarriesRestarts checks the live-only restart mapping:
// LiveFaultPlan translates scheduled reboots, while Build rejects them
// because the simulator cannot rebuild an automaton from durable state.
func TestLiveFaultPlanCarriesRestarts(t *testing.T) {
	cfg := Config{
		N:        3,
		Restarts: []Restart{{ID: 2, At: sim.Time(60 * time.Millisecond), Downtime: sim.Time(15 * time.Millisecond)}},
	}
	plan, err := LiveFaultPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Restarts) != 1 {
		t.Fatalf("restarts = %+v", plan.Restarts)
	}
	rs := plan.Restarts[0]
	if rs.ID != 2 || rs.After != 60*time.Millisecond || rs.Downtime != 15*time.Millisecond {
		t.Fatalf("restart = %+v", rs)
	}
	if _, err := Build(cfg); err == nil {
		t.Fatal("Build accepted a restart plan; restarts are live-cluster only")
	}
}

func TestLiveFaultPlanRejectsBadConfig(t *testing.T) {
	if _, err := LiveFaultPlan(Config{N: 1}); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, err := LiveFaultPlan(Config{N: 3, Regime: Regime("warp")}); err == nil {
		t.Fatal("unknown regime accepted")
	}
}
