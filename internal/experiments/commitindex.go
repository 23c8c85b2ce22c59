package experiments

import (
	"fmt"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/node"
	"repro/internal/scenario"
)

// E12CommitIndex regenerates Table 8: what committing by index costs the
// replicated log under four load regimes. The leader announces its
// decided prefix instead of re-sending decided values; the index rides on
// the next ACCEPT when one leaves as the prefix advances, and when none
// does goes as a value-free DECIDE to the replicas whose commands the
// prefix carries — the others hear on the next ACCEPT, or from the drive
// timer once the stream has gone quiet. So an idle stream (each instance
// decided on an empty pipeline, the next more than a drive interval away)
// pays 3(n−1) small messages per instance, the last n−1−|origins| of them
// a drive interval later; a spaced one (the next instance inside the drive
// interval, from a follower) 2(n−1)+1; a back-to-back stream (the next
// command is ready when the previous decides) tends to 2(n−1); a burst
// amortizes either over its batches — and in every regime a command's
// bytes cross each link once and no follower asks for anything.
func E12CommitIndex(o Opts) Table {
	o.fill()
	const n = 5
	cmds := 60
	if o.Quick {
		cmds = 30
	}
	t := Table{
		ID:    "E12",
		Title: "committing by index in the replicated log (Table 8)",
		Note: fmt.Sprintf("n=%d, %d commands of %d bytes at the leader (spaced: at follower 2, its REQs not counted); idle = one per 30ms, spaced = one per 10ms, back-to-back = the next as the previous applies, burst = all at once; 3(n-1)=%d, 2(n-1)+1=%d, 2(n-1)=%d, once per link = %d value bytes/cmd",
			n, cmds, e12CmdBytes, 3*(n-1), 2*(n-1)+1, 2*(n-1), (n-1)*e12CmdBytes),
		Columns: []string{"regime", "instances", "msgs/cmd", "DECIDE-kind", "LEARNs", "value bytes/cmd"},
	}
	regimes := []string{"idle", "spaced", "back-to-back", "burst"}
	res := sweepEach(o, regimes, func(regime string) commitIndexCost {
		return commitIndexRun(n, cmds, regime)
	})
	for i, regime := range regimes {
		r := res[i]
		t.Rows = append(t.Rows, []string{
			regime,
			fmt.Sprintf("%d", r.instances),
			fmt.Sprintf("%.1f", float64(r.msgs)/float64(cmds)),
			fmt.Sprintf("%d", r.decides),
			fmt.Sprintf("%d", r.learns),
			fmt.Sprintf("%.0f", float64(r.valueBytes)/float64(cmds)),
		})
	}
	return t
}

// e12CmdBytes is the size of every E12 command.
const e12CmdBytes = 32

// commitIndexCost is one E12 cell.
type commitIndexCost struct {
	instances             int
	msgs, decides, learns uint64
	valueBytes            uint64 // value bytes delivered in phase-2 and decision messages
}

// valueTap is an automaton composed next to a replica to see what is
// delivered to it: the fabric's counters know kinds, not contents.
// commitIndexRun reinstalls each process as Build composed it, detector
// and log, with the tap beside them.
type valueTap struct{ bytes *uint64 }

func (valueTap) Start(node.Env) {}
func (valueTap) Tick(string)    {}
func (t valueTap) Deliver(_ node.ID, m node.Message) {
	switch m := m.(type) {
	case *rsm.AcceptMsg:
		*t.bytes += uint64(len(m.V))
	case *rsm.DecideMsg:
		*t.bytes += uint64(len(m.V))
	}
}

// commitIndexRun executes one E12 cell.
func commitIndexRun(n, cmds int, regime string) commitIndexCost {
	s := build(scenario.Config{N: n, Seed: 31, Eta: Eta, Consensus: scenario.ConsensusRSM})
	w, logs := s.World, s.Logs
	var c commitIndexCost
	for i, l := range logs {
		w.SetAutomaton(node.ID(i), node.Compose(s.Omegas[i], l, valueTap{&c.valueBytes}))
	}
	w.Start()
	w.RunFor(500 * time.Millisecond)
	// What the leader pays per instance: a follower's own REQs are its client's.
	cost := func() uint64 { return kindTotal(w, rsmKinds) - w.Stats.KindCount(rsm.KindRequest) }
	before := cost()
	next := 0
	at := 0
	submit := func() {
		logs[at].Submit(consensus.Value(fmt.Sprintf("c%0*d", e12CmdBytes-1, next)))
		next++
	}
	switch regime {
	case "idle":
		for next < cmds {
			submit()
			w.RunFor(30 * time.Millisecond)
		}
	case "spaced":
		// Past the round trip (≤ 8 ms with the forward), inside the 20 ms
		// drive interval: no ACCEPT leaves as an instance decides, and the
		// next one tells the n−2 replicas that are not waiting.
		at = 2
		for next < cmds {
			submit()
			w.RunFor(10 * time.Millisecond)
		}
	case "back-to-back":
		logs[0].OnApply(func(_, _ int, v consensus.Value) {
			if next < cmds && v != consensus.Noop {
				submit()
			}
		})
		submit()
	case "burst":
		for next < cmds {
			submit()
		}
	}
	// Let the tail settle (any gap fill is part of the cost).
	w.RunFor(2 * time.Second)
	c.instances = logs[0].FirstGap()
	c.msgs = cost() - before
	c.decides = w.Stats.KindCount(rsm.KindDecide)
	c.learns = w.Stats.KindCount(rsm.KindLearn)
	return c
}
