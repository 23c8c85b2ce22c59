package traceview_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/traceview"
	"repro/internal/tracing"
	"repro/internal/transport"
)

// TestLiveSendsPrecedeTheirReceives is the premise Load rests on when it
// merges dumps without correcting any clock: on a live TCP cluster every
// process reads the one cluster clock, read at the sender before the frame
// is queued, so no span a message caused at its receiver starts before
// the message's "send" span. A traced n = 3 core + rsm run takes a few
// dozen commands entered at every process; its final dump is loaded back
// and every send edge checked — the receiver's spans under the send's
// parent all start no earlier than the send.
func TestLiveSendsPrecedeTheirReceives(t *testing.T) {
	const n, cmds = 3, 36
	dir := t.TempDir()
	set := tracing.New(tracing.Config{Procs: n, Dir: dir})
	dets, logs, autos := make([]*core.Detector, n), make([]*rsm.Node, n), make([]node.Automaton, n)
	for i := range autos {
		dets[i] = core.New(core.WithEta(4*time.Millisecond), core.WithBaseTimeout(100*time.Millisecond))
		logs[i] = rsm.New(dets[i], rsm.Config{Tracer: set.Tracer(i)})
		autos[i] = node.Compose(dets[i], logs[i])
	}
	c, err := transport.NewTCPCluster(transport.Config{N: n, Seed: 5, Quiet: true, Observer: set.Sink()}, autos)
	if err != nil {
		t.Fatal(err)
	}
	set.SetWallStart(time.Now().Add(-time.Duration(c.Now())))
	c.Start()
	defer c.Stop()
	await := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s not reached within 10s", what)
			}
		}
	}
	await("agreement on a leader", func() bool {
		l := dets[0].History().Current()
		for _, d := range dets {
			if d.History().Current() != l {
				return false
			}
		}
		return l != node.None
	})
	for i := 0; i < cmds; i++ {
		c.Inject(node.ID(i%n), node.ID(i%n), rsm.RequestMsg{V: consensus.Value(fmt.Sprint("w", i))})
	}
	await("every command applied everywhere", func() bool {
		for _, l := range logs {
			if l.Recorder().Count() < cmds {
				return false
			}
		}
		return true
	})
	c.Stop()
	if _, err := set.Final(); err != nil {
		t.Fatal(err)
	}

	m, err := traceview.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The receiver-side spans, by parent and by process.
	under := make(map[uint64]map[int][]tracing.SpanJSON)
	for _, sp := range m.Spans {
		if sp.Parent == 0 || sp.Name == "send" {
			continue
		}
		if under[sp.Parent] == nil {
			under[sp.Parent] = make(map[int][]tracing.SpanJSON)
		}
		under[sp.Parent][sp.Proc] = append(under[sp.Parent][sp.Proc], sp)
	}
	edges := 0
	for _, send := range m.Spans {
		if send.Name != "send" || send.Peer == send.Proc {
			continue
		}
		for _, recv := range under[send.Parent][send.Peer] {
			edges++
			if recv.StartNS < send.StartNS {
				t.Errorf("p%d's %s at %v precedes p%d's %s send to it at %v",
					recv.Proc, recv.Name, time.Duration(recv.StartNS), send.Proc, send.Note, time.Duration(send.StartNS))
			}
		}
	}
	if edges == 0 {
		t.Fatalf("no send span has a span at its peer under the same parent (%d spans): nothing was checked", len(m.Spans))
	}
	t.Logf("%d send→receive edges over %d spans", edges, len(m.Spans))
}
