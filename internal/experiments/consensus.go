package experiments

import (
	"fmt"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/ct"
	"repro/internal/consensus/rsm"
	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// ctKinds and rsmKinds name the message kinds belonging to each
// consensus protocol, so Omega heartbeats can be excluded from counts.
var (
	ctKinds = []string{
		ct.KindEstimate, ct.KindProposal, ct.KindAck, ct.KindNack, ct.KindDecide,
	}
	rsmKinds = []string{
		rsm.KindRequest, rsm.KindPrepare, rsm.KindPromise, rsm.KindNack,
		rsm.KindAccept, rsm.KindAccepted, rsm.KindDecide, rsm.KindLearn,
	}
)

func kindTotal(w *node.World, kinds []string) uint64 {
	var total uint64
	for _, k := range kinds {
		total += w.Stats.KindCount(k)
	}
	return total
}

// consensusRun builds n processes running layer (scenario.ConsensusRSM
// over Omega, or scenario.ConsensusCT alone), has every process propose,
// and runs until every correct process has decided (for rsm, the log's
// first instance) or the horizon. It returns the decision latency and the
// consensus message count. With crashLeader, p0 — rsm's first leader and
// ct's round-0 coordinator — crashes at t = 0: rsm pays the full
// re-election-plus-consensus price, ct a failed round plus the timeout
// before round 1 can decide.
func consensusRun(layer string, n int, seed int64, crashLeader bool) (time.Duration, uint64, bool) {
	cfg := scenario.Config{N: n, Seed: seed, Eta: Eta, Consensus: layer}
	if crashLeader {
		cfg.Crashes = []scenario.Crash{{ID: 0, At: 0}}
	}
	s := build(cfg)
	for i, c := range s.CT {
		c.Propose(consensus.Value(fmt.Sprintf("v%d", i)))
	}
	s.Start()
	for i, r := range s.Logs {
		r.Submit(consensus.Value(fmt.Sprintf("v%d", i)))
	}
	kinds := rsmKinds
	decided := func(i int) bool { return s.Logs[i].FirstGap() >= 1 }
	if layer == scenario.ConsensusCT {
		kinds = ctKinds
		decided = func(i int) bool { _, ok := s.CT[i].Decided(); return ok }
	}
	allDecided := func() bool {
		for i := 0; i < n; i++ {
			if s.World.Alive(node.ID(i)) && !decided(i) {
				return false
			}
		}
		return true
	}
	s.World.RunUntil(sim.At(20*time.Second), allDecided)
	return s.World.Kernel.Now().Duration(), kindTotal(s.World, kinds), allDecided()
}

// E6ConsensusCost regenerates Table 3: single-decree consensus cost — the
// Omega-driven leader protocol, as the first instance of rsm's log, against
// the rotating-coordinator baseline. Expected shape: rsm messages grow
// linearly in n, the baseline quadratically (its decide echo alone is
// n(n−1)).
func E6ConsensusCost(o Opts) Table {
	o.fill()
	sizes := []int{3, 5, 7, 9}
	if o.Quick {
		sizes = []int{3, 5}
	}
	t := Table{
		ID:      "E6",
		Title:   "single-decree consensus cost (Table 3)",
		Note:    "all links timely, every process proposes; messages are consensus kinds only (Omega heartbeats excluded); (×) marks a leader-crash variant",
		Columns: []string{"n", "protocol", "msgs (mean)", "latency (mean)", "decided"},
	}
	type proto struct {
		name  string
		layer string
		crash bool
	}
	protos := []proto{
		{"rsm+Ω", scenario.ConsensusRSM, false},
		{"ct-rotating", scenario.ConsensusCT, false},
		{"rsm+Ω (×)", scenario.ConsensusRSM, true},
		{"ct-rotating (×)", scenario.ConsensusCT, true},
	}
	type cell struct {
		n int
		p proto
	}
	var cells []cell
	for _, n := range sizes {
		for _, p := range protos {
			cells = append(cells, cell{n: n, p: p})
		}
	}
	type run struct {
		lat  time.Duration
		msgs uint64
		ok   bool
	}
	res := sweepCells(o, cells, func(c cell, seed int) run {
		lat, m, ok := consensusRun(c.p.layer, c.n, int64(seed), c.p.crash)
		return run{lat: lat, msgs: m, ok: ok}
	})
	for ci, c := range cells {
		var msgs, lats []float64
		decided := 0
		for _, r := range res[ci] {
			if r.ok {
				decided++
				msgs = append(msgs, float64(r.msgs))
				lats = append(lats, float64(r.lat)/float64(time.Millisecond))
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", c.n),
			c.p.name,
			fmt.Sprintf("%.0f", mean(msgs)),
			fmt.Sprintf("%.1fms", mean(lats)),
			fmt.Sprintf("%d/%d", decided, o.Seeds),
		})
	}
	return t
}

// e7World builds the n-process replicated-log world for E7 runs.
func e7World(n int, seed int64) (*node.World, []*rsm.Node) {
	s := build(scenario.Config{N: n, Seed: seed, Eta: Eta, Consensus: scenario.ConsensusRSM})
	s.Run(500 * time.Millisecond) // leader stable, ballot prepared
	return s.World, s.Logs
}

// e7SingleStream measures messages per command when commands arrive one
// at a time (each decided before the next is submitted).
func e7SingleStream(cmds, crashAfter int) []float64 {
	w, logs := e7World(5, 11)
	submitTo := 0
	perCmd := make([]float64, 0, cmds)
	prev := kindTotal(w, rsmKinds)
	prevGap := logs[2].FirstGap() // p2 stays alive throughout
	for i := 0; i < cmds; i++ {
		if i == crashAfter {
			w.Crash(0)
			submitTo = 1
		}
		logs[submitTo].Submit(consensus.Value(fmt.Sprintf("cmd-%d", i)))
		target := prevGap + 1
		w.RunUntil(w.Kernel.Now().Add(5*time.Second), func() bool {
			return logs[2].FirstGap() >= target
		})
		cur := kindTotal(w, rsmKinds)
		decidedNow := logs[2].FirstGap() - prevGap
		if decidedNow <= 0 {
			decidedNow = 1
		}
		perCmd = append(perCmd, float64(cur-prev)/float64(decidedNow))
		prev = cur
		prevGap = logs[2].FirstGap()
	}
	return perCmd
}

// e7Batched measures messages per command when commands arrive in bursts
// that the engine coalesces into batch envelopes: each burst costs one
// (or a few) instances' worth of phase-2 traffic, so the per-command cost
// drops by roughly the batch size.
func e7Batched(cmds, crashAfter, burst int) []float64 {
	w, logs := e7World(5, 11)
	submitTo := 0
	perCmd := make([]float64, 0, cmds)
	prev := kindTotal(w, rsmKinds)
	prevApplied := logs[2].Applied()
	for i := 0; i < cmds; i += burst {
		if i >= crashAfter && submitTo == 0 {
			w.Crash(0)
			submitTo = 1
		}
		k := burst
		if i+k > cmds {
			k = cmds - i
		}
		for j := 0; j < k; j++ {
			logs[submitTo].Submit(consensus.Value(fmt.Sprintf("cmd-%d", i+j)))
		}
		target := prevApplied + k
		w.RunUntil(w.Kernel.Now().Add(5*time.Second), func() bool {
			return logs[2].Applied() >= target
		})
		cur := kindTotal(w, rsmKinds)
		applied := logs[2].Applied() - prevApplied
		if applied <= 0 {
			applied = 1
		}
		v := float64(cur-prev) / float64(applied)
		for j := 0; j < k; j++ {
			perCmd = append(perCmd, v)
		}
		prev = cur
		prevApplied = logs[2].Applied()
	}
	return perCmd
}

// E7RepeatedConsensus regenerates Figure 4: per-command message cost of
// the replicated log over a stream of commands, with a leader crash
// mid-stream. Expected shape: ≈3(n−1)+1 messages per command in steady
// state when commands trickle in one at a time, one spike at the crash
// (re-prepare + re-proposals), then ≈3(n−2)+1, the crashed replica being
// sent only a probe a retryTimeout; the batched curve amortizes the same
// per-instance cost over each burst.
func E7RepeatedConsensus(o Opts) Series {
	o.fill()
	const n = 5
	const burst = 16 // the engine's default BatchMax
	cmds := 200
	crashAfter := 100
	if o.Quick {
		cmds = 60
		crashAfter = 30
	}
	single := e7SingleStream(cmds, crashAfter)
	batched := e7Batched(cmds, crashAfter, burst)

	const bucket = 5
	s := Series{
		ID:    "E7",
		Title: fmt.Sprintf("messages per command, replicated log, n=%d (Figure 4)", n),
		Note: fmt.Sprintf("leader crashes after command %d; steady state ≈ 3(n-1) = %d consensus messages per leader-submitted command, amortized to ≈ 3(n-1)/%d when bursts of %d coalesce into batch envelopes; after the crash the crashed replica gets only a probe a retryTimeout, so a command costs what the surviving cluster needs",
			crashAfter, 3*(n-1), burst, burst),
		XLabel: "command #",
		YLabel: "msgs/cmd",
		Names:  []string{"rsm+Ω", fmt.Sprintf("rsm+Ω batch=%d", burst)},
	}
	var xs, ys, yb []float64
	for i := 0; i+bucket <= len(single); i += bucket {
		xs = append(xs, float64(i))
		ys = append(ys, mean(single[i:i+bucket]))
		yb = append(yb, mean(batched[i:i+bucket]))
	}
	s.X = xs
	s.Y = [][]float64{ys, yb}
	return s
}
