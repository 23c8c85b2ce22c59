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
	"repro/internal/sim"
	"repro/internal/sweep"
)

// readSafetyWorld is one seeded world of the read-safety sweep: n replicas
// on 2 ms timely links, with core detectors that rebuff, under a write at a
// random replica every millisecond and a read at a random replica every half
// millisecond; the leader is crashed at 300 ms and the world runs to 1.5 s.
// A read is checked when it is answered: its Index must cover every write
// applied anywhere before it was issued. A write applied at some replica may
// have been acknowledged to its client there, so a read issued after it
// must see it — at its origin in particular.
//
// It returns what the world violates, and how many reads were answered
// before and after the crash.
func readSafetyWorld(n int, lease time.Duration, seed int64) (violations []string, before, after int) {
	w, err := node.NewWorld(node.WorldConfig{N: n, Seed: seed, DefaultLink: network.Timely(2 * ms)})
	if err != nil {
		return []string{err.Error()}, 0, 0
	}
	nodes := make([]*Node, n)
	// written[p] is 1 plus the log position of the last write p applied:
	// positions count every command the apply hook sees, no-ops included.
	pos, written := make([]int, n), make([]int, n)
	need := map[uint64]int{} // read seq → the writes it must cover
	const crashAt = 300 * ms
	for i := range nodes {
		det := core.New(core.WithEta(10*ms), core.WithRebuff())
		nodes[i] = New(det, Config{Lease: lease})
		w.SetAutomaton(node.ID(i), node.Compose(det, nodes[i]))
		nodes[i].OnApply(func(_, _ int, v consensus.Value) {
			if pos[i]++; strings.HasPrefix(string(v), "w") {
				written[i] = pos[i]
			}
		})
		nodes[i].OnReadReply(func(m ReadReplyMsg) {
			if m.Index < need[m.Seq] {
				violations = append(violations, fmt.Sprintf("read %d at p%d answered at index %d, below the %d commands of a write applied before it was issued",
					m.Seq, i, m.Index, need[m.Seq]))
			}
			if w.Kernel.Now() < sim.At(crashAt) {
				before++
			} else {
				after++
			}
		})
	}
	rng := rand.New(rand.NewSource(seed))
	alive := func() *Node {
		for {
			if p := rng.Intn(n); w.Alive(node.ID(p)) {
				return nodes[p]
			}
		}
	}
	var writes int
	var write, read func()
	write = func() {
		writes++
		alive().Submit(consensus.Value(fmt.Sprint("w", writes)))
		w.Kernel.Schedule(ms, write)
	}
	var seq uint64
	read = func() {
		seq++
		for _, p := range written {
			need[seq] = max(need[seq], p)
		}
		alive().Read(seq, 1)
		w.Kernel.Schedule(ms/2, read)
	}
	w.Kernel.Schedule(0, write)
	w.Kernel.Schedule(0, read)
	w.Start()
	w.RunFor(crashAt)
	leader := node.None
	for i, r := range nodes {
		if r.IsLeader() {
			leader = node.ID(i)
		}
	}
	if leader == node.None {
		return append(violations, "no leader to crash at 300 ms"), before, after
	}
	w.Crash(leader)
	w.RunFor(1500*ms - crashAt)
	return violations, before, after
}

// TestReadSafetyAcrossLeaderCrash sweeps the read path, with and without
// the lease, at three and five, through a leader crash: no answered read
// misses a write applied before it was issued, and every world answers
// reads both before and after the crash.
func TestReadSafetyAcrossLeaderCrash(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	type world struct {
		n     int
		lease time.Duration
		seed  int64
	}
	var worlds []world
	for _, n := range []int{3, 5} {
		for _, lease := range []time.Duration{0, 200 * ms} {
			for s := 1; s <= seeds; s++ {
				worlds = append(worlds, world{n, lease, int64(s)})
			}
		}
	}
	type result struct {
		violations    []string
		before, after int
	}
	results := sweep.Map(sweep.New(0), len(worlds), func(i int) result {
		v, b, a := readSafetyWorld(worlds[i].n, worlds[i].lease, worlds[i].seed)
		return result{v, b, a}
	})
	for i, r := range results {
		wd := worlds[i]
		if len(r.violations) > 0 {
			t.Errorf("n=%d lease=%v seed %d:\n  %s", wd.n, wd.lease, wd.seed, strings.Join(r.violations[:min(len(r.violations), 5)], "\n  "))
		}
		if r.before == 0 || r.after == 0 {
			t.Errorf("n=%d lease=%v seed %d: %d reads answered before the crash and %d after, want some of both", wd.n, wd.lease, wd.seed, r.before, r.after)
		}
	}
}
