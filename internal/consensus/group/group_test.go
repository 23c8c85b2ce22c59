package group

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/node"
	"repro/internal/sim"
)

// TestRotationRoundTrip proves Physical and Logical are inverses on every
// (id, group, n) triple in a realistic range, and that each group's logical
// id 0 — the Omega tie-break winner — lands on a distinct physical process
// when G <= n.
func TestRotationRoundTrip(t *testing.T) {
	for n := 1; n <= 7; n++ {
		for g := 0; g < 2*n; g++ {
			for p := 0; p < n; p++ {
				l := Logical(node.ID(p), g, n)
				if l < 0 || int(l) >= n {
					t.Fatalf("Logical(%d,%d,%d) = %d out of range", p, g, n, l)
				}
				if back := Physical(l, g, n); back != node.ID(p) {
					t.Fatalf("Physical(Logical(%d,%d,%d)) = %d", p, g, n, back)
				}
			}
			if lead := Physical(0, g, n); int(lead) != g%n {
				t.Fatalf("group %d leader at physical %d, want %d", g, lead, g%n)
			}
		}
	}
}

// TestRouterMatchesFNV pins the router's hash to the standard library's
// FNV-1a: the routing function is part of the client contract (every
// ingress must route a key identically), so it must never drift.
func TestRouterMatchesFNV(t *testing.T) {
	r := NewRouter(4)
	for _, key := range []string{"", "a", "key-17", "x=y", "the quick brown fox"} {
		h := fnv.New64a()
		_, _ = h.Write([]byte(key))
		want := int(h.Sum64() % 4)
		if got := r.Group(key); got != want {
			t.Fatalf("Group(%q) = %d, want %d", key, got, want)
		}
	}
}

// TestRouterSpread checks the hash actually spreads realistic keys: over
// 4k distinct keys and 4 groups, no group holds more than twice its fair
// share. (Not a statistical property test — a regression tripwire for
// accidentally hashing, say, only the first byte.)
func TestRouterSpread(t *testing.T) {
	r := NewRouter(4)
	counts := make([]int, 4)
	for i := 0; i < 4096; i++ {
		counts[r.Group(fmt.Sprintf("key-%d=value", i))]++
	}
	for g, c := range counts {
		if c > 2048 || c < 256 {
			t.Fatalf("group %d holds %d of 4096 keys: %v", g, c, counts)
		}
	}
}

// TestRouterRoute checks the batch fan-out: per-group slices, input order
// preserved, every command present exactly once.
func TestRouterRoute(t *testing.T) {
	r := NewRouter(3)
	var cmds []consensus.Value
	for i := 0; i < 64; i++ {
		cmds = append(cmds, consensus.Value(fmt.Sprintf("k%d", i)))
	}
	out := r.Route(cmds)
	if len(out) != 3 {
		t.Fatalf("Route returned %d slices, want 3", len(out))
	}
	total := 0
	for g, part := range out {
		prev := -1
		for _, c := range part {
			if got := r.Group(string(c)); got != g {
				t.Fatalf("command %q routed to slice %d but hashes to %d", c, g, got)
			}
			var idx int
			if _, err := fmt.Sscanf(string(c), "k%d", &idx); err != nil {
				t.Fatal(err)
			}
			if idx <= prev {
				t.Fatalf("group %d out of input order: %v", g, part)
			}
			prev = idx
		}
		total += len(part)
	}
	if total != len(cmds) {
		t.Fatalf("Route kept %d of %d commands", total, len(cmds))
	}
}

// --- engine tests --------------------------------------------------------

// recAuto records deliveries and echoes each one back with Send, so tests
// can observe both the inbound logical translation and the outbound
// wrapping.
type recAuto struct {
	mu     sync.Mutex
	env    node.Env
	donech chan struct{}
	got    []delivery
}

type delivery struct {
	from node.ID
	self node.ID
	msg  node.Message
}

func (a *recAuto) Start(env node.Env) { a.env = env }
func (a *recAuto) Deliver(from node.ID, m node.Message) {
	a.mu.Lock()
	a.got = append(a.got, delivery{from: from, self: a.env.ID(), msg: m})
	a.mu.Unlock()
	a.env.Send(from, m) // echo back: exercises the wrapping send path
	select {
	case a.donech <- struct{}{}:
	default:
	}
}
func (a *recAuto) Tick(string) {}

func (a *recAuto) deliveries() []delivery {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]delivery(nil), a.got...)
}

// fakeEnv is the shared transport Env an Engine runs over in these tests:
// it records wrapped sends from any goroutine.
type fakeEnv struct {
	id node.ID
	n  int

	mu    sync.Mutex
	sends []sendRec
}

type sendRec struct {
	to  node.ID
	msg node.Message
}

func (f *fakeEnv) ID() node.ID { return f.id }
func (f *fakeEnv) N() int      { return f.n }
func (f *fakeEnv) Now() sim.Time {
	return sim.Time(time.Now().UnixNano())
}
func (f *fakeEnv) Send(to node.ID, m node.Message) {
	f.mu.Lock()
	f.sends = append(f.sends, sendRec{to: to, msg: m})
	f.mu.Unlock()
}
func (f *fakeEnv) Broadcast(m node.Message) {
	for i := 0; i < f.n; i++ {
		if node.ID(i) != f.id {
			f.Send(node.ID(i), m)
		}
	}
}
func (f *fakeEnv) SetTimer(string, time.Duration) {}
func (f *fakeEnv) StopTimer(string)               {}
func (f *fakeEnv) Logf(string, ...any)            {}

func (f *fakeEnv) sent() []sendRec {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]sendRec(nil), f.sends...)
}

type ping struct{ tag string }

func (ping) Kind() string { return "PING-TEST" }

// TestEngineDemux drives wrapped messages through both delivery paths and
// checks each lands on its own group's automaton with ids translated into
// the group's logical space, and that the echo leaves the engine wrapped
// and re-rotated back to the physical space.
func TestEngineDemux(t *testing.T) {
	const n, groups = 3, 2
	autos := make([]*recAuto, groups)
	eng := New(Config{
		Groups: groups,
		Build: func(g int) node.Automaton {
			autos[g] = &recAuto{donech: make(chan struct{}, 16)}
			return autos[g]
		},
	})
	defer eng.Halt()
	env := &fakeEnv{id: 1, n: n} // we are physical process 1
	eng.Start(env)

	// Physical sender 2 → group 0: logical sender 2, logical self 1.
	if !eng.DeliverConcurrent(2, Wrap(0, ping{tag: "a"})) {
		t.Fatal("group message not consumed")
	}
	// Physical sender 2 → group 1: logical sender 1, logical self 0.
	eng.Deliver(2, Wrap(1, ping{tag: "b"}))

	for g := 0; g < groups; g++ {
		select {
		case <-autos[g].donech:
		case <-time.After(2 * time.Second):
			t.Fatalf("group %d never saw its delivery", g)
		}
	}

	d0 := autos[0].deliveries()
	if len(d0) != 1 || d0[0].from != 2 || d0[0].self != 1 || d0[0].msg.(ping).tag != "a" {
		t.Fatalf("group 0 deliveries = %+v", d0)
	}
	d1 := autos[1].deliveries()
	if len(d1) != 1 || d1[0].from != 1 || d1[0].self != 0 || d1[0].msg.(ping).tag != "b" {
		t.Fatalf("group 1 deliveries = %+v", d1)
	}

	// Each automaton echoed to its logical sender; the engine must have
	// wrapped and rotated both back to physical process 2.
	sends := env.sent()
	if len(sends) != 2 {
		t.Fatalf("engine sent %d messages, want 2: %+v", len(sends), sends)
	}
	for _, s := range sends {
		gm, ok := s.msg.(Msg)
		if !ok {
			t.Fatalf("outbound message not wrapped: %T", s.msg)
		}
		if s.to != 2 {
			t.Fatalf("group %d echo went to physical %d, want 2", gm.Group, s.to)
		}
	}
}

// TestEngineDropsMisrouted checks malformed wrappers are consumed without
// crashing or reaching any group: bad group ids, nil inner, and that a
// non-group message is NOT consumed (the transport falls back to the
// station loop).
func TestEngineDropsMisrouted(t *testing.T) {
	autos := make([]*recAuto, 2)
	eng := New(Config{Groups: 2, Build: func(g int) node.Automaton {
		autos[g] = &recAuto{donech: make(chan struct{}, 1)}
		return autos[g]
	}})
	defer eng.Halt()
	eng.Start(&fakeEnv{id: 0, n: 3})

	if !eng.DeliverConcurrent(1, Wrap(-1, ping{})) {
		t.Fatal("negative group id not consumed")
	}
	if !eng.DeliverConcurrent(1, Wrap(2, ping{})) {
		t.Fatal("out-of-range group id not consumed")
	}
	if !eng.DeliverConcurrent(1, Msg{Group: 0}) {
		t.Fatal("nil inner not consumed")
	}
	if eng.DeliverConcurrent(1, ping{}) {
		t.Fatal("unwrapped message consumed by the group engine")
	}
	time.Sleep(50 * time.Millisecond)
	for g, a := range autos {
		if d := a.deliveries(); len(d) != 0 {
			t.Fatalf("group %d saw misrouted deliveries: %+v", g, d)
		}
	}
}

// TestEngineTimers checks per-group timers fire on the group's own loop and
// that StopTimer invalidates a pending expiry.
func TestEngineTimers(t *testing.T) {
	fired := make(chan string, 4)
	eng := New(Config{Groups: 2, Build: func(g int) node.Automaton {
		return &tickAuto{g: g, fired: fired}
	}})
	defer eng.Halt()
	eng.Start(&fakeEnv{id: 0, n: 3})
	select {
	case key := <-fired:
		if key != "g1-keep" {
			t.Fatalf("first firing = %q, want g1-keep (g0's was stopped)", key)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	select {
	case key := <-fired:
		t.Fatalf("stopped timer fired: %q", key)
	case <-time.After(100 * time.Millisecond):
	}
}

// tickAuto arms one timer per group at Start; group 0 immediately stops
// its own.
type tickAuto struct {
	g     int
	fired chan string
}

func (a *tickAuto) Start(env node.Env) {
	if a.g == 0 {
		env.SetTimer("g0-stop", 20*time.Millisecond)
		env.StopTimer("g0-stop")
		return
	}
	env.SetTimer("g1-keep", 20*time.Millisecond)
}
func (a *tickAuto) Deliver(node.ID, node.Message) {}
func (a *tickAuto) Tick(key string) {
	if key != node.TurnEnd {
		a.fired <- "g" + fmt.Sprint(a.g) + "-" + key[3:]
	}
}

// TestEngineHalt checks Halt quiesces every loop, is idempotent, and that
// post-Halt deliveries and sends are dropped.
func TestEngineHalt(t *testing.T) {
	var a *recAuto
	eng := New(Config{Groups: 1, Build: func(int) node.Automaton {
		a = &recAuto{donech: make(chan struct{}, 1)}
		return a
	}})
	env := &fakeEnv{id: 0, n: 2}
	eng.Start(env)
	eng.DeliverConcurrent(1, Wrap(0, ping{tag: "pre"}))
	<-a.donech
	eng.Halt()
	eng.Halt() // idempotent
	eng.DeliverConcurrent(1, Wrap(0, ping{tag: "post"}))
	time.Sleep(50 * time.Millisecond)
	if d := a.deliveries(); len(d) != 1 {
		t.Fatalf("post-Halt delivery dispatched: %+v", d)
	}
}

// TestEngineHaltBeforeStart: halting an engine that never started must not
// hang (the loops it would wait for were never spawned).
func TestEngineHaltBeforeStart(t *testing.T) {
	eng := New(Config{Groups: 2, Build: func(int) node.Automaton {
		return &recAuto{donech: make(chan struct{}, 1)}
	}})
	done := make(chan struct{})
	go func() { eng.Halt(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Halt before Start hung")
	}
}
