package transport

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultline"
	"repro/internal/node"
	"repro/internal/obs"
)

// stepCounter counts the steps an automaton takes — every Tick and every
// Deliver — and broadcasts a ping each time its 5 ms timer fires, so a
// live process of them both ticks and is delivered to.
type stepCounter struct {
	env             node.Env
	ticks, delivers atomic.Int64
}

func (c *stepCounter) Start(env node.Env) {
	c.env = env
	env.SetTimer("count", 5*time.Millisecond)
}

func (c *stepCounter) Deliver(node.ID, node.Message) { c.delivers.Add(1) }

func (c *stepCounter) Tick(key string) {
	c.ticks.Add(1)
	if key == "count" {
		c.env.Broadcast(pingMsg())
		c.env.SetTimer("count", 5*time.Millisecond)
	}
}

// steps sums the ticks and the deliveries of counters; a nil one counts
// nothing.
func steps(counters ...*stepCounter) (ticks, delivers int64) {
	for _, c := range counters {
		if c != nil {
			ticks += c.ticks.Load()
			delivers += c.delivers.Load()
		}
	}
	return ticks, delivers
}

// expectStill fails unless counters take no step in the next 100 ms.
func expectStill(t *testing.T, what string, counters ...*stepCounter) {
	t.Helper()
	ticks, delivers := steps(counters...)
	time.Sleep(100 * time.Millisecond)
	if t2, d2 := steps(counters...); t2 != ticks || d2 != delivers {
		t.Fatalf("%s ticked %d more times and was delivered %d more messages", what, t2-ticks, d2-delivers)
	}
}

// TestCrashStopsTheNodeLoop: a crashed process takes no further step —
// crashed by TCPCluster.Crash, by a faultline crash plan, or by a restart
// plan, after which the old incarnation stays dead beside the new one —
// and a stopped cluster takes none anywhere, its goroutines gone.
func TestCrashStopsTheNodeLoop(t *testing.T) {
	const n = 3
	run := func(t *testing.T, plan faultline.Plan, drill func(c *TCPCluster, counters []*stepCounter, rebuilt func() *stepCounter)) {
		before := runtime.NumGoroutine()
		autos := make([]node.Automaton, n)
		counters := make([]*stepCounter, n)
		for i := range autos {
			counters[i] = &stepCounter{}
			autos[i] = counters[i]
		}
		var mu sync.Mutex
		var next *stepCounter
		c, err := NewTCPCluster(Config{N: n, Seed: 21, Quiet: true, Fault: mustInjector(t, n, 21, plan),
			Rebuild: func(node.ID) node.Automaton {
				mu.Lock()
				defer mu.Unlock()
				next = &stepCounter{}
				return next
			}}, autos)
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		waitFor(t, 5*time.Second, func() bool { ticks, delivers := steps(counters[0]); return ticks > 20 && delivers > 20 }, "steps at p0")
		rebuilt := func() *stepCounter { mu.Lock(); defer mu.Unlock(); return next }
		drill(c, counters, rebuilt)
		c.Stop()
		expectStill(t, "a stopped cluster", append(counters, rebuilt())...)
		waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= before }, fmt.Sprintf("goroutines back to %d", before))
	}
	crashedStill := func(t *testing.T, c *TCPCluster, counters []*stepCounter) {
		waitFor(t, 5*time.Second, func() bool { return c.stations[0].Down() }, "the crash")
		time.Sleep(20 * time.Millisecond) // a turn under way at the crash ends
		expectStill(t, "crashed process", counters[0])
	}
	t.Run("Crash", func(t *testing.T) {
		run(t, faultline.Plan{}, func(c *TCPCluster, counters []*stepCounter, _ func() *stepCounter) {
			c.Crash(0)
			crashedStill(t, c, counters)
		})
	})
	t.Run("CrashPlan", func(t *testing.T) {
		plan := faultline.Plan{Schedule: faultline.Schedule{{At: 100 * time.Millisecond, Op: faultline.OpCrash, From: 0}}}
		run(t, plan, func(c *TCPCluster, counters []*stepCounter, _ func() *stepCounter) {
			crashedStill(t, c, counters)
		})
	})
	t.Run("RestartPlan", func(t *testing.T) {
		plan := faultline.Plan{Schedule: faultline.Schedule{
			{At: 100 * time.Millisecond, Op: faultline.OpCrash, From: 0},
			{At: 110 * time.Millisecond, Op: faultline.OpRestart, From: 0},
		}}
		run(t, plan, func(c *TCPCluster, counters []*stepCounter, rebuilt func() *stepCounter) {
			waitFor(t, 5*time.Second, func() bool {
				ticks, delivers := steps(rebuilt())
				return ticks > 20 && delivers > 20
			}, "steps at p0's next incarnation")
			expectStill(t, "restarted process's old incarnation", counters[0])
		})
	})
}

// TestStationTimers checks a station's timers fire on its node loop, and
// that StopTimer invalidates a pending expiry.
func TestStationTimers(t *testing.T) {
	fired := make(chan string, 4)
	s := newStation(0, 3, &tickAuto{fired: fired}, discard{}, obs.Nop{})
	defer runStation(s)()
	select {
	case key := <-fired:
		if key != "keep" {
			t.Fatalf("first firing = %q, want keep (stop was stopped)", key)
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

// tickAuto arms two timers at Start and at once stops the first.
type tickAuto struct{ fired chan string }

func (a *tickAuto) Start(env node.Env) {
	env.SetTimer("stop", 20*time.Millisecond)
	env.SetTimer("keep", 20*time.Millisecond)
	env.StopTimer("stop")
}
func (a *tickAuto) Deliver(node.ID, node.Message) {}
func (a *tickAuto) Tick(key string) {
	if key != node.TurnEnd {
		a.fired <- key
	}
}
