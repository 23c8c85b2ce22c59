package synod

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/node"
	"repro/internal/sim"
)

// sent records one outbound message from the fake environment.
type sent struct {
	to  node.ID
	msg node.Message
}

// fakeEnv is a hand-driven node.Env for unit-testing protocol logic.
type fakeEnv struct {
	id     node.ID
	n      int
	now    sim.Time
	outbox []sent
	timers map[string]time.Duration
}

var _ node.Env = (*fakeEnv)(nil)

func newFakeEnv(id node.ID, n int) *fakeEnv {
	return &fakeEnv{id: id, n: n, timers: make(map[string]time.Duration)}
}

func (e *fakeEnv) ID() node.ID   { return e.id }
func (e *fakeEnv) N() int        { return e.n }
func (e *fakeEnv) Now() sim.Time { return e.now }

func (e *fakeEnv) Send(to node.ID, m node.Message) {
	e.outbox = append(e.outbox, sent{to: to, msg: m})
}

func (e *fakeEnv) Broadcast(m node.Message) {
	for to := 0; to < e.n; to++ {
		if node.ID(to) != e.id {
			e.Send(node.ID(to), m)
		}
	}
}

func (e *fakeEnv) SetTimer(key string, d time.Duration) { e.timers[key] = d }
func (e *fakeEnv) StopTimer(key string)                 { delete(e.timers, key) }
func (e *fakeEnv) Logf(format string, args ...any)      { _ = fmt.Sprintf(format, args...) }

func (e *fakeEnv) drain() []sent {
	out := e.outbox
	e.outbox = nil
	return out
}

// drive fires the engine's housekeeping timer: the one timer an engine on
// this env arms (no detector is composed with it).
func (e *fakeEnv) drive(t testing.TB, r *rsm.Node) {
	t.Helper()
	if len(e.timers) != 1 {
		t.Fatalf("timers = %v, want the drive timer alone", e.timers)
	}
	for key := range e.timers {
		r.Tick(key)
	}
}

// prepared returns the ballot of the PREPARE broadcast in out, if any.
func prepared(out []sent) (consensus.Ballot, bool) {
	for _, s := range out {
		if p, ok := s.msg.(rsm.PrepareMsg); ok {
			return p.B, true
		}
	}
	return consensus.NoBallot, false
}

// acceptsOf extracts the ACCEPT broadcasts per instance from an outbox.
func acceptsOf(out []sent) map[int]consensus.Value {
	accepts := make(map[int]consensus.Value)
	for _, s := range out {
		if a, ok := s.msg.(*rsm.AcceptMsg); ok {
			accepts[a.Inst] = a.V
		}
	}
	return accepts
}
