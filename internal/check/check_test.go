package check

import (
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
)

const ms = time.Millisecond

func at(msec int) sim.Time { return sim.At(time.Duration(msec) * ms) }

func history(changes ...Changeish) *detector.History {
	h := detector.NewHistory()
	for _, c := range changes {
		h.Record(at(c.ms), node.ID(c.leader))
	}
	return h
}

// Changeish is a compact literal for building test histories.
type Changeish struct {
	ms     int
	leader int
}

func TestOmegaHoldsOnAgreement(t *testing.T) {
	in := OmegaInput{
		Histories: []*detector.History{
			history(Changeish{0, 0}, Changeish{50, 1}),
			history(Changeish{0, 1}),
			history(Changeish{0, 0}, Changeish{70, 1}),
		},
		Crashed: map[node.ID]sim.Time{},
		Horizon: at(1000),
	}
	rep := Omega(in)
	if !rep.Holds {
		t.Fatalf("Holds = false: %s", rep.Reason)
	}
	if rep.Leader != 1 {
		t.Fatalf("Leader = %v, want 1", rep.Leader)
	}
	if rep.StabilizedAt != at(70) {
		t.Fatalf("StabilizedAt = %v, want 70ms", rep.StabilizedAt)
	}
	if rep.Changes != 5 {
		t.Fatalf("Changes = %d, want 5", rep.Changes)
	}
}

func TestOmegaFailsOnDisagreement(t *testing.T) {
	in := OmegaInput{
		Histories: []*detector.History{
			history(Changeish{0, 0}),
			history(Changeish{0, 1}),
			// Past the first disagreement: its changes still count.
			history(Changeish{0, 1}, Changeish{40, 0}),
		},
		Crashed: map[node.ID]sim.Time{},
		Horizon: at(100),
	}
	rep := Omega(in)
	if rep.Holds {
		t.Fatal("Holds = true on disagreement")
	}
	if rep.Reason == "" {
		t.Fatal("missing reason")
	}
	if rep.Changes != 4 || rep.StabilizedAt != at(40) {
		t.Fatalf("Changes = %d, StabilizedAt = %v; want 4 and 40ms, every correct process counted", rep.Changes, rep.StabilizedAt)
	}
}

func TestOmegaFailsOnCrashedLeader(t *testing.T) {
	in := OmegaInput{
		Histories: []*detector.History{
			history(Changeish{0, 2}),
			history(Changeish{0, 2}),
			history(Changeish{0, 2}),
		},
		Crashed: map[node.ID]sim.Time{2: at(10)},
		Horizon: at(100),
	}
	rep := Omega(in)
	if rep.Holds {
		t.Fatal("Holds = true with crashed leader")
	}
}

func TestOmegaIgnoresCrashedProcessOutputs(t *testing.T) {
	in := OmegaInput{
		Histories: []*detector.History{
			history(Changeish{0, 0}),
			history(Changeish{0, 1}), // crashed: its disagreement is fine
			history(Changeish{0, 0}),
		},
		Crashed: map[node.ID]sim.Time{1: at(5)},
		Horizon: at(100),
	}
	rep := Omega(in)
	if !rep.Holds || rep.Leader != 0 {
		t.Fatalf("rep = %+v, want holds with leader 0", rep)
	}
}

func TestOmegaNoCorrectProcess(t *testing.T) {
	in := OmegaInput{
		Histories: []*detector.History{history(Changeish{0, 0})},
		Crashed:   map[node.ID]sim.Time{0: at(1)},
		Horizon:   at(100),
	}
	if rep := Omega(in); rep.Holds {
		t.Fatal("Holds = true with no correct process")
	}
}

func TestCommEffEfficientRun(t *testing.T) {
	s := metrics.NewMessageStats(3)
	// Noise from everyone early, then only p1.
	s.OnSend(at(5), 0, 1, obs.Intern("X"))
	s.OnSend(at(8), 2, 1, obs.Intern("X"))
	before := s.TotalSent() // the window [50ms, 200ms) opens here
	for msec := 100; msec < 200; msec += 10 {
		s.OnSend(at(msec), 1, 0, obs.Intern("L"))
		s.OnSend(at(msec), 1, 2, obs.Intern("L"))
	}
	rep := CommEff(s, 1, at(50), at(200), 10*ms, s.TotalSent()-before)
	if !rep.Efficient {
		t.Fatalf("Efficient = false, QuietSince = %v", rep.QuietSince)
	}
	if len(rep.Senders) != 1 || rep.Senders[0] != 1 {
		t.Fatalf("Senders = %v, want [1]", rep.Senders)
	}
	if rep.LinksUsed != 2 {
		t.Fatalf("LinksUsed = %d, want 2", rep.LinksUsed)
	}
	// 20 messages over a 150ms window at 10ms period = 20/15 per period.
	if rep.MessagesPerPeriod < 1.2 || rep.MessagesPerPeriod > 1.5 {
		t.Fatalf("MessagesPerPeriod = %v", rep.MessagesPerPeriod)
	}
}

func TestCommEffInefficientRun(t *testing.T) {
	s := metrics.NewMessageStats(3)
	var before uint64
	for msec := 0; msec < 200; msec += 10 {
		if msec == 100 {
			before = s.TotalSent() // the window [100ms, 200ms) opens here
		}
		for from := 0; from < 3; from++ {
			s.OnSend(at(msec), from, (from+1)%3, obs.Intern("A"))
		}
	}
	rep := CommEff(s, 0, at(100), at(200), 10*ms, s.TotalSent()-before)
	if rep.Efficient {
		t.Fatal("Efficient = true for all-to-all traffic")
	}
	if len(rep.Senders) != 3 {
		t.Fatalf("Senders = %v", rep.Senders)
	}
	// 30 messages over ten periods.
	if rep.MessagesPerPeriod != 3 {
		t.Fatalf("MessagesPerPeriod = %v, want 3", rep.MessagesPerPeriod)
	}
}

func TestAgreementAt(t *testing.T) {
	in := OmegaInput{
		Histories: []*detector.History{
			history(Changeish{0, 0}, Changeish{50, 1}),
			history(Changeish{0, 1}),
		},
		Crashed: map[node.ID]sim.Time{},
		Horizon: at(100),
	}
	if _, ok := AgreementAt(in, at(20)); ok {
		t.Fatal("agreement reported before p0 switched")
	}
	l, ok := AgreementAt(in, at(60))
	if !ok || l != 1 {
		t.Fatalf("AgreementAt(60ms) = %v,%v", l, ok)
	}
}

func TestAgreementAtRejectsLeaderCrashedByT(t *testing.T) {
	in := OmegaInput{
		Histories: []*detector.History{
			history(Changeish{0, 2}),
			history(Changeish{0, 2}),
		},
		Crashed: map[node.ID]sim.Time{2: at(30)},
		Horizon: at(100),
	}
	if _, ok := AgreementAt(in, at(50)); ok {
		t.Fatal("agreement on a leader already crashed at t")
	}
	// Histories indexed 0,1 only; leader 2 is a third process whose own
	// history is irrelevant here. Before its crash, agreement holds.
	if _, ok := AgreementAt(in, at(10)); !ok {
		t.Fatal("agreement should hold before the leader crashed")
	}
}

func TestConvergenceTime(t *testing.T) {
	in := OmegaInput{
		Histories: []*detector.History{
			history(Changeish{0, 0}, Changeish{40, 1}),
			history(Changeish{0, 1}),
		},
		Crashed: map[node.ID]sim.Time{},
		Horizon: at(100),
	}
	got, ok := ConvergenceTime(in)
	if !ok || got != at(40) {
		t.Fatalf("ConvergenceTime = %v,%v want 40ms", got, ok)
	}
	bad := OmegaInput{
		Histories: []*detector.History{history(Changeish{0, 0}), history(Changeish{0, 1})},
		Crashed:   map[node.ID]sim.Time{},
		Horizon:   at(100),
	}
	if _, ok := ConvergenceTime(bad); ok {
		t.Fatal("ConvergenceTime on diverged run")
	}
}
