package node

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
)

// kindMsg is a message of the kind it names.
type kindMsg struct{ k obs.Kind }

func (m kindMsg) KindID() obs.Kind { return m.k }

var (
	kindFirst  = obs.Intern("TURN-FIRST")
	kindSecond = obs.Intern("TURN-SECOND")
	kindSignal = obs.Intern("TURN-SIGNAL")
)

// turnAuto sends two messages to p1 on each delivery and a third from the
// end of that delivery's turn, noting whether the signal has returned and
// how many end-of-turn signals it has had.
type turnAuto struct {
	env      Env
	pending  bool // a delivery's turn is open
	returned bool // the signal of the last delivery's turn has returned
	signals  int
}

func (a *turnAuto) Start(env Env) { a.env = env }
func (a *turnAuto) Deliver(ID, Message) {
	a.pending, a.returned = true, false
	a.env.Send(1, kindMsg{kindFirst})
	a.env.Send(1, kindMsg{kindSecond})
}
func (a *turnAuto) Tick(key string) {
	if key != TurnEnd {
		return
	}
	a.signals++
	if a.pending {
		a.env.Send(1, kindMsg{kindSignal})
		a.pending, a.returned = false, true
	}
}

// sendTap records p0's sends as the fabric reports them, and whether p0's
// end-of-turn signal had returned at each.
type sendTap struct {
	obs.Nop
	a        *turnAuto
	kinds    []obs.Kind
	returned []bool
}

func (s *sendTap) OnSend(_ sim.Time, from, _ int, k obs.Kind) {
	if from == 0 {
		s.kinds = append(s.kinds, k)
		s.returned = append(s.returned, s.a.returned)
	}
}

func newTurnWorld(t *testing.T) (*World, *turnAuto, *sendTap) {
	t.Helper()
	a := &turnAuto{}
	tap := &sendTap{a: a}
	w, err := NewWorld(WorldConfig{N: 2, Seed: 1, DefaultLink: network.Timely(ms), Observer: tap})
	if err != nil {
		t.Fatal(err)
	}
	w.SetAutomaton(0, a)
	w.SetAutomaton(1, &echoAutomaton{onStart: func(env Env) { env.Send(0, pingMsg{}) }})
	return w, a, tap
}

// TestWorldTurnHoldsSendsUntilItsEnd: a delivery is a turn — what its
// handler sends, and what the end-of-turn signal sends, reaches the fabric
// only once Tick(TurnEnd) has returned, in the order it was sent.
func TestWorldTurnHoldsSendsUntilItsEnd(t *testing.T) {
	w, _, tap := newTurnWorld(t)
	w.Start()
	w.RunFor(10 * ms)
	var got []string
	for _, k := range tap.kinds {
		got = append(got, obs.KindName(k))
	}
	if want := "[TURN-FIRST TURN-SECOND TURN-SIGNAL]"; fmt.Sprint(got) != want {
		t.Fatalf("p0 sent %v, want %v", got, want)
	}
	for i, returned := range tap.returned {
		if !returned {
			t.Fatalf("send %d (%s) reached the fabric before the turn's signal returned", i, got[i])
		}
	}
}

// TestWorldSendOutsideATurnLeavesAtOnce: a send through World.Env from a
// kernel callback is in no turn — it is on the fabric before the callback
// returns, and no end-of-turn signal follows it.
func TestWorldSendOutsideATurnLeavesAtOnce(t *testing.T) {
	w, a, tap := newTurnWorld(t)
	w.Start()
	w.RunFor(10 * ms)
	signals, sent := a.signals, len(tap.kinds)
	if signals < 2 {
		t.Fatalf("p0 had %d end-of-turn signals by 10ms, want its boot's and its delivery's", signals)
	}
	w.Kernel.Schedule(time.Millisecond, func() {
		w.Env(0).Send(1, kindMsg{kindFirst})
		if len(tap.kinds) != sent+1 {
			t.Errorf("a send outside any turn was not on the fabric when it returned")
		}
	})
	w.RunFor(10 * ms)
	if a.signals != signals {
		t.Fatalf("p0 had %d end-of-turn signals after a send outside any turn, want %d", a.signals, signals)
	}
}
