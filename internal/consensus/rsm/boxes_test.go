package rsm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/obs"
)

// Every per-operation kind — ACCEPT, ACCEPTED, DECIDE, REQ, READ, READR —
// is a pointer, boxed from the sender's node.Slab: the tests here hold a box
// to what it held when it arrived, and count what one instance costs.

// boxSpy is a replica that keeps every boxed message delivered to it, with a
// copy of what the box held on arrival.
type boxSpy struct {
	*Node
	got  []node.Message
	held []any
}

func (s *boxSpy) Deliver(from node.ID, m node.Message) {
	if v := reflect.ValueOf(m); v.Kind() == reflect.Pointer {
		s.got, s.held = append(s.got, m), append(s.held, v.Elem().Interface())
	}
	s.Node.Deliver(from, m)
}

// TestBroadcastSharesOneBox: on node.World one ACCEPT broadcast reaches all
// n−1 followers as the same box, any other box reaches one replica, and when
// the run is over every box still holds what it held on arrival — after
// every receiver has handled it and the senders have cut hundreds more from
// their slabs. The load is commands and reads at every replica, so that
// followers forward REQs and READs and the leader answers READRs. A slab
// that handed a slot out twice, or a handler that wrote through a message,
// fails it.
func TestBroadcastSharesOneBox(t *testing.T) {
	const n = 5
	w, err := node.NewWorld(node.WorldConfig{N: n, Seed: 3, DefaultLink: network.Timely(ms)})
	if err != nil {
		t.Fatal(err)
	}
	spies := make([]*boxSpy, n)
	for i := range spies {
		det := core.New(core.WithEta(10 * ms))
		spies[i] = &boxSpy{Node: New(det, Config{})}
		w.SetAutomaton(node.ID(i), node.Compose(det, spies[i]))
	}
	w.Start()
	w.RunFor(200 * ms)
	for i := 0; i < 3000; i++ {
		spies[i%n].Submit(consensus.Value(fmt.Sprint("cmd-", i)))
		if i%3 == 0 {
			spies[(i+1)%n].Read(uint64(i), 1)
		}
		if i%4 == 0 {
			w.RunFor(ms)
		}
	}
	w.RunFor(time.Second)

	receivers, boxes := map[node.Message]int{}, map[string]int{}
	for i, s := range spies {
		for j, m := range s.got {
			if receivers[m]++; receivers[m] == 1 {
				boxes[obs.KindName(m.KindID())]++
			}
			if now := reflect.ValueOf(m).Elem().Interface(); now != s.held[j] {
				t.Fatalf("p%d's %s #%d holds %+v at the end of the run, %+v on arrival", i, obs.KindName(m.KindID()), j, now, s.held[j])
			}
		}
	}
	for m, k := range receivers {
		want := 1
		if m.KindID() == kindAcceptID {
			want = n - 1
		}
		if k != want {
			t.Fatalf("%s %+v reached %d receivers as this box, want %d", obs.KindName(m.KindID()), m, k, want)
		}
	}
	t.Logf("boxes per kind: %v", boxes)
	for _, kind := range []string{KindAccept, KindAccepted, KindRequest, KindReadReq, KindReadReply} {
		if chunks := boxes[kind] / 32; chunks < 10 {
			t.Fatalf("%d %s boxes, %d slab chunks: too few to mean anything (all boxes: %v)", boxes[kind], kind, chunks, boxes)
		}
	}
}

// TestProposedValuesReadBackWhole: the values a leader proposes are cut from
// its arena, and every replica's Recorder keeps them. After the leader has
// cut several chunks' worth — lone commands copied raw, commands that begin
// with the batch marker wrapped, batches built in place — every decision of
// every replica reads back byte for byte what its applier saw when the
// instance was applied, and every command submitted is among them. An arena
// that wrote over a chunk it had handed strings out of fails it.
func TestProposedValuesReadBackWhole(t *testing.T) {
	const n, commands = 3, 3000
	c := newCluster(t, n, 5, network.Timely(ms))
	applied := make([][]consensus.Value, n)
	for i, r := range c.nodes {
		r.OnApply(func(_, _ int, v consensus.Value) {
			applied[i] = append(applied[i], consensus.Value(strings.Clone(string(v))))
		})
	}
	c.world.Start()
	c.world.RunFor(200 * ms)
	submitted, bytes := map[consensus.Value]bool{}, 0
	for i := 0; i < commands; i++ {
		v := consensus.Value(fmt.Sprintf("%06d-%s", i, strings.Repeat(string(rune('a'+i%26)), 40+i%90)))
		if i%7 == 0 {
			v = batchPrefix + v
		}
		submitted[v], bytes = true, bytes+len(v)
		c.nodes[i%n].Submit(v)
		if i%50 < 25 {
			c.world.RunFor(3 * ms) // one at a time: proposed alone
		}
	}
	c.world.RunFor(time.Second)
	if bytes < 3*64<<10 {
		t.Fatalf("%d bytes of commands: fewer than three arena chunks", bytes)
	}
	for i, r := range c.nodes {
		lone, batched := 0, 0
		all := r.Recorder().All()
		for k, d := range all {
			if k >= len(applied[i]) || d.Value != applied[i][k] {
				t.Fatalf("p%d's decision %d of %d reads back %.30q, applied as %.30q", i, k, len(all), d.Value, applied[i][min(k, len(applied[i])-1)])
			}
			delete(submitted, d.Value)
			switch {
			case d.Cmd > 0:
			case k+1 < len(all) && all[k+1].Cmd > 0:
				batched++
			default:
				lone++
			}
		}
		if len(all) != len(applied[i]) || lone < 100 || batched < 100 {
			t.Fatalf("p%d: %d decisions for %d applied, %d instances of one command and %d batches", i, len(all), len(applied[i]), lone, batched)
		}
	}
	if len(submitted) > 0 {
		t.Fatalf("%d commands submitted were never decided", len(submitted))
	}
}

// phase2Cluster is a prepared leader p0 and its two followers, each on a
// hand-driven env whose outbox the caller delivers from.
type phase2Cluster struct {
	nodes [3]*Node
	envs  [3]*fakeEnv
}

func newPhase2Cluster(tb testing.TB) *phase2Cluster {
	c := &phase2Cluster{}
	c.nodes[0], c.envs[0] = prepareLeaderCfg(tb, nil, Config{})
	c.envs[0].drain()
	for i := 1; i < 3; i++ {
		c.nodes[i], c.envs[i] = New(consensus.StaticLeader(0), Config{}), newFakeEnv(node.ID(i), 3)
		c.nodes[i].Start(c.envs[i])
	}
	return c
}

// deliver hands p's outbox to its addressees and empties it, keeping its
// array: a delivery appends to the receiver's outbox, never to p's.
func (c *phase2Cluster) deliver(p int) {
	for _, s := range c.envs[p].outbox {
		c.nodes[s.to].Deliver(node.ID(p), s.msg)
	}
	c.envs[p].outbox = c.envs[p].outbox[:0]
}

// round is one instance of a command p1 forwarded: the ACCEPT broadcast,
// the n−1 ACCEPTEDs, then the commit index owed to p1. p2 hears the index on
// the next round's ACCEPT.
func (c *phase2Cluster) round(req node.Message) {
	c.nodes[0].Deliver(1, req)
	c.deliver(0) // ACCEPT to p1 and p2
	c.deliver(1) // ACCEPTED
	c.deliver(2) // ACCEPTED
	c.deliver(0) // DECIDE to p1
}

// BenchmarkPhase2Round is one steady-state instance of three replicas on a
// hand-driven env, its REQ prebuilt: the ACCEPT broadcast, the two
// ACCEPTEDs and the commit index, at 0 allocs/op: the four boxes the round
// sends are cut from slabs, a chunk per 32, and the leader's copy of the
// command it proposes alone from its arena (encodeBatch).
func BenchmarkPhase2Round(b *testing.B) {
	c := newPhase2Cluster(b)
	var req node.Message = &RequestMsg{V: "command-with-a-64-byte-payload-like-the-benchmark-sends........."}
	c.round(req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.round(req)
	}
	b.StopTimer()
	if got := c.nodes[1].FirstGap(); got != b.N+1 {
		b.Fatalf("p1 decided %d instances in %d rounds", got, b.N+1)
	}
}
