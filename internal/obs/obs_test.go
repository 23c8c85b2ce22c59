package obs

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/sim"
)

func TestInternIsStableAndDense(t *testing.T) {
	a := Intern("obs-test-alpha")
	b := Intern("obs-test-beta")
	if a == b {
		t.Fatal("distinct names interned to the same id")
	}
	if got := Intern("obs-test-alpha"); got != a {
		t.Fatalf("re-intern = %d, want %d", got, a)
	}
	if KindName(a) != "obs-test-alpha" || KindName(b) != "obs-test-beta" {
		t.Fatalf("KindName round-trip failed: %q %q", KindName(a), KindName(b))
	}
	if k, ok := Lookup("obs-test-alpha"); !ok || k != a {
		t.Fatalf("Lookup = %d,%v", k, ok)
	}
	if _, ok := Lookup("obs-test-never-interned"); ok {
		t.Fatal("Lookup invented an id")
	}
}

func TestInternConcurrent(t *testing.T) {
	const goroutines = 8
	const names = 20
	var wg sync.WaitGroup
	got := make([][]Kind, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([]Kind, names)
			for i := 0; i < names; i++ {
				got[g][i] = Intern(fmt.Sprintf("obs-test-conc-%d", i))
			}
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := 0; i < names; i++ {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d interned %q to %d, goroutine 0 to %d",
					g, fmt.Sprintf("obs-test-conc-%d", i), got[g][i], got[0][i])
			}
		}
	}
}

// countingSink tallies every call, for Tee tests.
type countingSink struct{ sends, delivers, drops, bytes, ctxs, events int }

func (c *countingSink) OnSend(sim.Time, int, int, Kind)                    { c.sends++ }
func (c *countingSink) OnDeliver(sim.Time, int, int, Kind)                 { c.delivers++ }
func (c *countingSink) OnDrop(sim.Time, int, int, Kind)                    { c.drops++ }
func (c *countingSink) OnWireBytes(sim.Time, int, int, Kind, int)          { c.bytes++ }
func (c *countingSink) OnSendCtx(sim.Time, int, int, Kind, uint64, uint64) { c.ctxs++ }
func (c *countingSink) OnEvent(Event)                                      { c.events++ }

// sendsOnly is a partial observer: Nop for all but OnSend.
type sendsOnly struct {
	Nop
	sends int
}

func (s *sendsOnly) OnSend(sim.Time, int, int, Kind) { s.sends++ }

func TestTeeFansOutAndSkipsNil(t *testing.T) {
	a, b := &countingSink{}, &countingSink{}
	s := Tee(nil, a, nil, b)
	s.OnSend(1, 0, 1, 0)
	s.OnSend(2, 0, 1, 0)
	s.OnDeliver(3, 0, 1, 0)
	s.OnDrop(4, 0, 1, 0)
	s.OnWireBytes(5, 0, 1, 0, 40)
	s.OnSendCtx(6, 0, 1, 0, 9, 3)
	s.OnEvent(Event{T: 7, What: Down, Proc: 0, Peer: -1})
	want := countingSink{sends: 2, delivers: 1, drops: 1, bytes: 1, ctxs: 1, events: 1}
	for _, c := range []*countingSink{a, b} {
		if *c != want {
			t.Fatalf("sink saw %+v, want %+v", *c, want)
		}
	}
}

// TestTeePartialMemberSeesOnlySends: a member that embeds Nop and
// implements OnSend alone is handed every call, and keeps only the sends.
func TestTeePartialMemberSeesOnlySends(t *testing.T) {
	part := &sendsOnly{}
	s := Tee(part, Nop{})
	s.OnSend(1, 0, 1, 0)
	s.OnDeliver(2, 0, 1, 0)
	s.OnDrop(3, 0, 1, 0)
	s.OnWireBytes(4, 0, 1, 0, 40)
	s.OnSendCtx(5, 0, 1, 0, 9, 3)
	s.OnEvent(Event{T: 6, What: Note, Proc: 0, Peer: -1})
	if part.sends != 1 {
		t.Fatalf("partial member counted %d sends, want 1", part.sends)
	}
}

func TestTeeDegenerateCases(t *testing.T) {
	if _, ok := Tee().(Nop); !ok {
		t.Fatal("empty Tee is not a Nop")
	}
	if _, ok := Tee(nil, nil).(Nop); !ok {
		t.Fatal("all-nil Tee is not a Nop")
	}
	a := &countingSink{}
	if got := Tee(nil, a); got != Sink(a) {
		t.Fatal("single-sink Tee did not unwrap")
	}
}
