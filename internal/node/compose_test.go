package node

import (
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/obs"
)

// recordingAutomaton notes which callbacks it saw.
type recordingAutomaton struct {
	acceptKind string
	acceptKey  string
	started    bool
	delivered  []Message
	ticked     []string
}

func (r *recordingAutomaton) Start(Env) { r.started = true }

func (r *recordingAutomaton) Deliver(_ ID, m Message) {
	if obs.KindName(m.KindID()) == r.acceptKind {
		r.delivered = append(r.delivered, m)
	}
}

func (r *recordingAutomaton) Tick(key string) {
	if key == r.acceptKey {
		r.ticked = append(r.ticked, key)
	}
}

func TestComposeFansOut(t *testing.T) {
	w, err := NewWorld(WorldConfig{N: 2, Seed: 1, DefaultLink: network.Timely(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	a := &recordingAutomaton{acceptKind: "PING", acceptKey: "a/t"}
	b := &recordingAutomaton{acceptKind: "PONG", acceptKey: "b/t"}
	w.SetAutomaton(0, Compose(a, b))
	sender := &recordingAutomaton{}
	w.SetAutomaton(1, sender)
	w.Start()

	if !a.started || !b.started {
		t.Fatal("children not started")
	}
	env := w.Env(1)
	env.Send(0, pingMsg{})
	w.RunFor(10 * time.Millisecond)
	if len(a.delivered) != 1 {
		t.Fatalf("a saw %d PINGs, want 1", len(a.delivered))
	}
	if len(b.delivered) != 0 {
		t.Fatal("b accepted a PING")
	}

	w.Env(0).SetTimer("b/t", time.Millisecond)
	w.RunFor(10 * time.Millisecond)
	if len(b.ticked) != 1 || len(a.ticked) != 0 {
		t.Fatalf("ticks routed wrong: a=%v b=%v", a.ticked, b.ticked)
	}
}
