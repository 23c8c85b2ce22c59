package rsm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// crashWatch watches a world from outside its processes: every send, as an
// observer teed into the fabric, and every delivery a process handles and
// every timer it fires, through a wrapper around its automaton. It notes
// whatever a crashed process does.
type crashWatch struct {
	obs.Nop
	w     *node.World
	after []string
}

func (c *crashWatch) note(id node.ID, what string, args ...any) {
	if !c.w.Alive(id) && len(c.after) < 5 {
		at, _ := c.w.CrashedAt(id)
		c.after = append(c.after, fmt.Sprintf("p%d crashed at %v, then at %v: %s", id, at, c.w.Kernel.Now(), fmt.Sprintf(what, args...)))
	}
}

func (c *crashWatch) OnSend(_ sim.Time, from, to int, kind obs.Kind) {
	c.note(node.ID(from), "sent %s to p%d", obs.KindName(kind), to)
}

// watched is a process's automaton as the watch sees it.
type watched struct {
	node.Automaton
	id node.ID
	c  *crashWatch
}

func (a watched) Deliver(from node.ID, m node.Message) {
	a.c.note(a.id, "delivered %s from p%d", obs.KindName(m.KindID()), from)
	a.Automaton.Deliver(from, m)
}

func (a watched) Tick(key string) {
	a.c.note(a.id, "fired timer %q", key)
	a.Automaton.Tick(key)
}

// crashStopWorld runs five replicas under an open-loop client that submits a
// command every 500 µs at a replica the seed picks, the crashed one
// included, and crashes whoever leads at an instant the seed picks. It
// returns what the watch saw of the crashed process afterwards, and an error
// if the survivors did not go on deciding.
func crashStopWorld(seed int64) (after []string, err error) {
	rng := rand.New(rand.NewSource(seed))
	c := &crashWatch{}
	w, err := node.NewWorld(node.WorldConfig{N: 5, Seed: seed, DefaultLink: network.Timely(ms), Observer: c})
	if err != nil {
		return nil, err
	}
	c.w = w
	var dets []*core.Detector
	var nodes []*Node
	for i := 0; i < 5; i++ {
		det := core.New(core.WithEta(10*ms), core.WithRebuff())
		log := New(det, Config{DriveInterval: 5 * ms})
		dets, nodes = append(dets, det), append(nodes, log)
		w.SetAutomaton(node.ID(i), watched{node.Compose(det, log), node.ID(i), c})
	}
	w.Start()
	k := w.Kernel
	end := sim.At(1500 * time.Millisecond)
	for seq, at := 0, sim.At(100*ms); at < end; seq, at = seq+1, at.Add(500*time.Microsecond) {
		to, v := nodes[rng.Intn(5)], consensus.Value(fmt.Sprint("cmd-", seq))
		k.ScheduleAt(at, func() { to.Submit(v) })
	}
	before := make([]int, 5) // what each had decided when the leader crashed
	k.ScheduleAt(sim.At(300*ms+time.Duration(rng.Intn(400_000))*time.Microsecond), func() {
		for i, r := range nodes {
			before[i] = r.Recorder().Count()
		}
		w.Crash(dets[0].Leader())
	})
	w.RunFor(end.Add(500 * ms).Sub(k.Now()))
	for _, id := range w.Correct() {
		if got := nodes[id].Recorder().Count() - before[id]; got < 1000 {
			return c.after, fmt.Errorf("p%d decided %d commands after the crash, want 1000 or more", id, got)
		}
	}
	return c.after, nil
}

// TestCrashStopProperty: in a hundred seeded worlds whose leader is crashed
// under load, the crashed process sends nothing, delivers nothing and fires
// no timer from its crash on — what crash-stop means — while the others go
// on deciding.
func TestCrashStopProperty(t *testing.T) {
	type result struct {
		after []string
		err   error
	}
	results := sweep.Map(sweep.New(0), 100, func(i int) result {
		after, err := crashStopWorld(int64(1 + i))
		return result{after, err}
	})
	for i, r := range results {
		if r.err != nil {
			t.Errorf("seed %d: %v", 1+i, r.err)
		}
		if len(r.after) > 0 {
			t.Errorf("seed %d:\n  %s", 1+i, strings.Join(r.after, "\n  "))
		}
	}
}
