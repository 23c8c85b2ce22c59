package node

import (
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
)

const ms = time.Millisecond

// pingMsg is a trivial test message.
type pingMsg struct{ Seq int }

func (pingMsg) KindID() obs.Kind { return obs.Intern("PING") }

// echoAutomaton replies to every PING with a PING carrying Seq+1 and
// records timer ticks, skipping the end-of-turn signal, which is no timer.
type echoAutomaton struct {
	env      Env
	got      []int
	ticks    []string
	onStart  func(Env)
	onTick   func(key string)
	delivers int
}

func (a *echoAutomaton) Start(env Env) {
	a.env = env
	if a.onStart != nil {
		a.onStart(env)
	}
}

func (a *echoAutomaton) Deliver(from ID, m Message) {
	a.delivers++
	p, ok := m.(pingMsg)
	if !ok {
		return
	}
	a.got = append(a.got, p.Seq)
	if p.Seq < 5 {
		a.env.Send(from, pingMsg{Seq: p.Seq + 1})
	}
}

func (a *echoAutomaton) Tick(key string) {
	if key == TurnEnd {
		return
	}
	a.ticks = append(a.ticks, key)
	if a.onTick != nil {
		a.onTick(key)
	}
}

func newEchoWorld(t *testing.T, n int) (*World, []*echoAutomaton) {
	t.Helper()
	w, err := NewWorld(WorldConfig{
		N:           n,
		Seed:        7,
		DefaultLink: network.Timely(ms),
		EnableTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	autos := make([]*echoAutomaton, n)
	for i := range autos {
		autos[i] = &echoAutomaton{}
		w.SetAutomaton(ID(i), autos[i])
	}
	return w, autos
}

func TestPingPong(t *testing.T) {
	w, autos := newEchoWorld(t, 2)
	autos[0].onStart = func(env Env) { env.Send(1, pingMsg{Seq: 0}) }
	w.Start()
	w.RunFor(time.Second)
	// 0 → 1 (0), 1 → 0 (1), ... until Seq 5.
	if got := autos[1].got; len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("p1 got %v, want [0 2 4]", got)
	}
	if got := autos[0].got; len(got) != 3 || got[0] != 1 || got[2] != 5 {
		t.Fatalf("p0 got %v, want [1 3 5]", got)
	}
}

func TestBroadcastReachesAllInOrder(t *testing.T) {
	w, autos := newEchoWorld(t, 5)
	autos[2].onStart = func(env Env) { env.Broadcast(pingMsg{Seq: 99}) }
	w.Start()
	w.RunFor(time.Second)
	for i, a := range autos {
		want := 1
		if i == 2 {
			want = 0
		}
		if len(a.got) != want {
			t.Fatalf("p%d received %d pings, want %d", i, len(a.got), want)
		}
	}
	if w.Stats.TotalSent() != 4 {
		t.Fatalf("broadcast sent %d messages, want 4", w.Stats.TotalSent())
	}
}

func TestTimersFireAndReset(t *testing.T) {
	w, autos := newEchoWorld(t, 2)
	var firedAt sim.Time
	autos[0].onStart = func(env Env) {
		env.SetTimer("x", 10*ms)
		env.SetTimer("x", 30*ms) // reset replaces the deadline
	}
	autos[0].onTick = func(key string) { firedAt = w.Kernel.Now() }
	w.Start()
	w.RunFor(time.Second)
	if len(autos[0].ticks) != 1 || autos[0].ticks[0] != "x" {
		t.Fatalf("ticks = %v, want one 'x'", autos[0].ticks)
	}
	if firedAt != sim.At(30*ms) {
		t.Fatalf("timer fired at %v, want 30ms (reset deadline)", firedAt)
	}
}

func TestStopTimer(t *testing.T) {
	w, autos := newEchoWorld(t, 2)
	autos[0].onStart = func(env Env) {
		env.SetTimer("x", 10*ms)
		env.StopTimer("x")
		env.StopTimer("never-armed") // must be a no-op
	}
	w.Start()
	w.RunFor(time.Second)
	if len(autos[0].ticks) != 0 {
		t.Fatalf("stopped timer ticked: %v", autos[0].ticks)
	}
}

func TestMultipleTimerKeys(t *testing.T) {
	w, autos := newEchoWorld(t, 2)
	autos[0].onStart = func(env Env) {
		env.SetTimer("b", 20*ms)
		env.SetTimer("a", 10*ms)
	}
	w.Start()
	w.RunFor(time.Second)
	if len(autos[0].ticks) != 2 || autos[0].ticks[0] != "a" || autos[0].ticks[1] != "b" {
		t.Fatalf("ticks = %v, want [a b]", autos[0].ticks)
	}
}

func TestCrashStopsEverything(t *testing.T) {
	w, autos := newEchoWorld(t, 3)
	autos[0].onStart = func(env Env) {
		env.SetTimer("x", 50*ms)
	}
	w.Start()
	w.CrashAt(0, sim.At(10*ms))
	w.Kernel.ScheduleAt(sim.At(20*ms), func() {
		// A message to the crashed process must vanish silently.
		w.Env(1).Send(0, pingMsg{Seq: 0})
	})
	w.RunFor(time.Second)
	if len(autos[0].ticks) != 0 {
		t.Fatal("crashed process's timer fired")
	}
	if autos[0].delivers != 0 {
		t.Fatal("crashed process received a message")
	}
	if w.Alive(0) {
		t.Fatal("Alive(0) after crash")
	}
	if _, ok := w.CrashedAt(0); !ok {
		t.Fatal("CrashedAt(0) not recorded")
	}
	correct := w.Correct()
	if len(correct) != 2 || correct[0] != 1 || correct[1] != 2 {
		t.Fatalf("Correct() = %v, want [1 2]", correct)
	}
}

func TestCrashedProcessCannotSend(t *testing.T) {
	w, _ := newEchoWorld(t, 2)
	w.Start()
	w.Crash(0)
	w.Env(0).Send(1, pingMsg{}) // silently ignored
	w.RunFor(time.Second)
	if w.Stats.TotalSent() != 0 {
		t.Fatal("crashed process sent a message")
	}
}

func TestDoubleCrashIsIdempotent(t *testing.T) {
	w, _ := newEchoWorld(t, 2)
	w.Start()
	w.Crash(0)
	w.Crash(0)
	at, _ := w.CrashedAt(0)
	if at != sim.TimeZero {
		t.Fatalf("crash time moved: %v", at)
	}
}

func TestClockRateSkewsTimers(t *testing.T) {
	w, err := NewWorld(WorldConfig{
		N:           2,
		Seed:        1,
		DefaultLink: network.Timely(ms),
		ClockRates:  []float64{2.0, 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	autos := []*echoAutomaton{{}, {}}
	for i := range autos {
		w.SetAutomaton(ID(i), autos[i])
	}
	var slowAt, nominalAt sim.Time
	autos[0].onStart = func(env Env) { env.SetTimer("t", 10*ms) }
	autos[0].onTick = func(string) { slowAt = w.Kernel.Now() }
	autos[1].onStart = func(env Env) { env.SetTimer("t", 10*ms) }
	autos[1].onTick = func(string) { nominalAt = w.Kernel.Now() }
	w.Start()
	w.RunFor(time.Second)
	if slowAt != sim.At(20*ms) {
		t.Fatalf("skewed timer fired at %v, want 20ms", slowAt)
	}
	if nominalAt != sim.At(10*ms) {
		t.Fatalf("nominal timer fired at %v, want 10ms", nominalAt)
	}
}

func TestWorldConfigValidation(t *testing.T) {
	if _, err := NewWorld(WorldConfig{N: 1, DefaultLink: network.Timely(ms)}); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, err := NewWorld(WorldConfig{N: 3, DefaultLink: network.Timely(ms), ClockRates: []float64{1}}); err == nil {
		t.Fatal("bad ClockRates length accepted")
	}
	if _, err := NewWorld(WorldConfig{N: 3, DefaultLink: network.Profile{}}); err == nil {
		t.Fatal("invalid link profile accepted")
	}
}

func TestStartRequiresAutomatons(t *testing.T) {
	w, err := NewWorld(WorldConfig{N: 2, DefaultLink: network.Timely(ms)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing automaton")
		}
	}()
	w.Start()
}

func TestEnvIdentity(t *testing.T) {
	w, _ := newEchoWorld(t, 3)
	w.Start()
	env := w.Env(2)
	if env.ID() != 2 || env.N() != 3 {
		t.Fatalf("env ID/N = %v/%v", env.ID(), env.N())
	}
	env.Logf("note %d", 1) // must not panic
}

// noteSink records the events a world reports to its observer.
type noteSink struct {
	obs.Nop
	events []obs.Event
}

func (s *noteSink) OnEvent(e obs.Event) { s.events = append(s.events, e) }

// TestLogfCostsNothingWithTraceOff: a world that was not asked to trace
// returns from Logf before formatting — protocols call it on every leader
// change and every ballot — while one that was reports the text, and a
// crash reaches the observer either way.
func TestLogfCostsNothingWithTraceOff(t *testing.T) {
	build := func(trace bool, sink obs.Sink) *World {
		w, err := NewWorld(WorldConfig{N: 2, Seed: 1, DefaultLink: network.Timely(ms), EnableTrace: trace, Observer: sink})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	off := &noteSink{}
	for _, w := range []*World{build(false, nil), build(false, off), build(true, nil)} {
		env, counter := w.Env(0), 7
		if allocs := testing.AllocsPerRun(100, func() { env.Logf("leader → p%d (counter=%d)", 1, counter) }); allocs != 0 {
			t.Fatalf("Logf with tracing off allocates %.1f objects per call, want 0", allocs)
		}
	}
	if len(off.events) != 0 {
		t.Fatalf("tracing off, yet the observer got %v", off.events)
	}

	on := &noteSink{}
	w := build(true, on)
	w.Env(1).Logf("ballot %d", 3)
	w.Crash(0)
	w.Crash(0) // a second crash of a dead process is not an event
	want := []obs.Event{
		{What: obs.Note, Proc: 1, Peer: -1, Text: "ballot 3"},
		{What: obs.Down, Proc: 0, Peer: -1},
	}
	if len(on.events) != 2 || on.events[0] != want[0] || on.events[1] != want[1] {
		t.Fatalf("observer got %v, want %v", on.events, want)
	}
}
