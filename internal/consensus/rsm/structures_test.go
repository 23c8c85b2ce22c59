package rsm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/consensus"
	"repro/internal/durable"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/tracing"
)

// This file holds the index-addressed structures (instance window,
// batcher ring, in-place envelope walk) to the ones they replaced: each
// old structure is kept here as a reference model and driven side by
// side with its replacement.

// refDecodeBatch is the slice-returning decoder eachCmd replaced, less
// its one defect: it sized the result from the envelope's count before
// checking it, so a short envelope claiming 2^60 commands panicked in
// make instead of decoding as itself.
func refDecodeBatch(v consensus.Value) []consensus.Value {
	s := string(v)
	if !strings.HasPrefix(s, batchPrefix) {
		return []consensus.Value{v}
	}
	rest := s[len(batchPrefix):]
	count, n := binary.Uvarint([]byte(rest))
	if n <= 0 {
		return []consensus.Value{v}
	}
	rest = rest[n:]
	out := []consensus.Value{}
	for i := uint64(0); i < count; i++ {
		size, n := binary.Uvarint([]byte(rest))
		if n <= 0 || uint64(len(rest)-n) < size {
			return []consensus.Value{v}
		}
		out = append(out, consensus.Value(rest[n:n+int(size)]))
		rest = rest[n+int(size):]
	}
	return out
}

func FuzzDecodeBatch(f *testing.F) {
	for _, cmds := range [][]consensus.Value{
		{"single"}, {"a", "b", "c"}, {"", "x", ""}, {},
		{batchPrefix + "starts with the marker"},
		{batchPrefix, batchPrefix + "\x01\x01a", "plain"},
		{consensus.Value(make([]byte, 300)), consensus.Noop},
	} {
		f.Add([]byte(encodeBatch(new(node.Arena), cmds)))
	}
	for _, raw := range []string{
		"", "legacy", batchPrefix, batchPrefix + "\x02\x01a", // count 2, one command
		batchPrefix + "\x01\x05ab",                                          // length past the end
		batchPrefix + "\x80",                                                // count cut short
		batchPrefix + "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01",            // 2^64-1 commands
		batchPrefix + "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01",        // count overflows
		batchPrefix + "\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01payload", // length 2^64-1
		batchPrefix + "\x01\x01a" + "trailing bytes are ignored",
	} {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		v := consensus.Value(b)
		want := refDecodeBatch(v)
		var got []consensus.Value
		eachCmd(v, func(k int, cmd consensus.Value) {
			if k != len(got) {
				t.Fatalf("command %d yielded at position %d", len(got), k)
			}
			got = append(got, cmd)
		})
		if pub := DecodeBatch(v); len(pub) != len(got) {
			t.Fatalf("DecodeBatch yields %d commands, eachCmd %d", len(pub), len(got))
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d commands %q, reference %d %q", b, len(got), got, len(want), want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q: command %d = %q, reference %q", b, i, got[i], want[i])
			}
		}
		// Whatever it decoded to re-encodes to something that decodes the
		// same: the applier and a replaying tool always agree.
		if back := DecodeBatch(encodeBatch(new(node.Arena), got)); len(got) > 0 && fmt.Sprint(back) != fmt.Sprint(got) {
			t.Fatalf("%q: re-encoded commands decode as %q, want %q", b, back, got)
		}
	})
}

func TestEncodeBatchSizesExactly(t *testing.T) {
	for _, cmds := range [][]consensus.Value{
		{}, {"a", "b"}, {batchPrefix + "x"}, {consensus.Value(make([]byte, 127)), consensus.Value(make([]byte, 128))},
		{consensus.Value(make([]byte, 1<<14-1)), consensus.Value(make([]byte, 1<<14)), ""},
	} {
		want := len(batchPrefix) + len(binary.AppendUvarint(nil, uint64(len(cmds))))
		for _, c := range cmds {
			want += len(binary.AppendUvarint(nil, uint64(len(c)))) + len(c)
		}
		if got := len(encodeBatch(new(node.Arena), cmds)); got != want {
			t.Fatalf("envelope of %d commands is %d bytes, want %d", len(cmds), got, want)
		}
	}
	// A leader's values, envelopes and lone commands alike, are cut from its
	// arena: a chunk per ~120 of these, which rounds to 0 a value.
	var vals node.Arena
	big := []consensus.Value{consensus.Value(make([]byte, 200)), consensus.Value(make([]byte, 300)), "c"}
	lone := []consensus.Value{consensus.Value(make([]byte, 64))}
	if got := testing.AllocsPerRun(1000, func() { encodeBatch(&vals, big); encodeBatch(&vals, lone) }); got != 0 {
		t.Fatalf("encodeBatch allocates %.0f times a value, want 0: cut from the arena, built in place", got)
	}
	// A lone command is proposed raw but copied: the log keeps it, and must
	// not keep the chunk a connection's decoder cut it from with it.
	if v := encodeBatch(&vals, lone); v != lone[0] || unsafe.StringData(string(v)) == unsafe.StringData(string(lone[0])) {
		t.Fatal("a lone command was proposed as the caller's own string")
	}
}

// refBatcher is the slice-of-pointers queue the ring replaced, with the
// same un-assign rule (everything assigned goes back at once).
type refBatcher struct{ pending []*pendingCmd }

func (b *refBatcher) take(me node.ID, max int, allowPartial bool) []consensus.Value {
	var picked []*pendingCmd
	for _, p := range b.pending {
		if p.lastSentTo == me {
			continue
		}
		if picked = append(picked, p); len(picked) == max {
			break
		}
	}
	if len(picked) == 0 || (len(picked) < max && !allowPartial) {
		return nil
	}
	var cmds []consensus.Value
	for _, p := range picked {
		p.lastSentTo = me
		cmds = append(cmds, p.v)
	}
	return cmds
}

func (b *refBatcher) retire(v consensus.Value) {
	for i, p := range b.pending {
		if p.v == v {
			b.pending = append(b.pending[:i], b.pending[i+1:]...)
			return
		}
	}
}

func TestBatcherRingMatchesSliceModel(t *testing.T) {
	const me = node.ID(2)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ring batcher
		var ref refBatcher
		var fl flight
		next := 0
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // add, sometimes a value already queued
				v := consensus.Value(fmt.Sprint("c", next))
				if next++; rng.Intn(8) == 0 && len(ref.pending) > 0 {
					v = ref.pending[rng.Intn(len(ref.pending))].v
				}
				ring.add(v, sim.Time(step), tracing.Context{}, node.None)
				ref.pending = append(ref.pending, &pendingCmd{v: v, enq: sim.Time(step), lastSentTo: node.None})
			case op < 6: // take
				max, partial := 1+rng.Intn(6), rng.Intn(2) == 0
				want := ref.take(me, max, partial)
				k := min(ring.tail-ring.next, max)
				if k < max && !partial {
					k = 0
				}
				var got []consensus.Value
				if k > 0 {
					got = ring.take(k, me, sim.Time(step), &fl)
					if len(fl.enq) != k || len(fl.reqs) != 0 {
						t.Fatalf("take(%d) left %d enqueue times, %d contexts", k, len(fl.enq), len(fl.reqs))
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d step %d: take = %q, model %q", seed, step, got, want)
				}
			case op < 9: // retire: usually the head, sometimes anything, sometimes nothing
				v := consensus.Value("absent")
				if n := len(ref.pending); n > 0 {
					if v = ref.pending[0].v; rng.Intn(3) == 0 {
						v = ref.pending[rng.Intn(n)].v
					}
				}
				ring.retire(v)
				ref.retire(v)
			default: // a leader change: nothing is assigned any more
				ring.unassign()
				for _, p := range ref.pending {
					p.lastSentTo = node.None
				}
			}
			if ring.head > ring.next || ring.next > ring.tail || ring.tail-ring.head != len(ref.pending) {
				t.Fatalf("seed %d step %d: ring head %d next %d tail %d, model holds %d",
					seed, step, ring.head, ring.next, ring.tail, len(ref.pending))
			}
			for i, p := range ref.pending {
				q := ring.at(ring.head + i)
				if q.v != p.v || q.enq != p.enq || (ring.head+i < ring.next) != (p.lastSentTo == me) {
					t.Fatalf("seed %d step %d: slot %d = %+v (assigned below %d), model %+v",
						seed, step, i, *q, ring.next-ring.head, *p)
				}
			}
		}
	}
}

func TestWindowIslandsForgetAndHorizon(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 24 {
		t.Fatalf("a slot is %d bytes, want 24: a value and a ballot", got)
	}
	l := logbook{highestDecided: -1}
	b := consensus.MakeBallot(1, 0, 3)
	l.insert(0, "v0")
	l.insert(1, "v1")
	l.insert(5, "v5") // islands above the gap
	l.insert(6, "v6")
	l.accept(3, b, "a3")
	l.accept(9, b, "a9") // a vote past everything decided
	if l.firstGap != 2 || l.highestDecided != 6 || l.decided != 4 || l.voted != 2 || l.end() != 10 {
		t.Fatalf("gap %d highest %d decided %d voted %d end %d", l.firstGap, l.highestDecided, l.decided, l.voted, l.end())
	}
	if v, ok := l.get(5); !ok || v != "v5" {
		t.Fatalf("island read back %q,%v", v, ok)
	}
	for _, inst := range []int{-1, 2, 3, 4, 7, 9, 10, 1 << 40} {
		if v, ok := l.get(inst); ok {
			t.Fatalf("undecided instance %d reads %q", inst, v)
		}
	}
	if l.insert(5, "other") {
		t.Fatal("a decided island was overwritten")
	}
	l.insert(3, "v3") // deciding over a vote consumes it
	if l.voted != 1 || *l.at(3) != (slot{v: "v3", b: decidedB}) {
		t.Fatalf("voted = %d after deciding the voted instance", l.voted)
	}
	l.insert(2, "v2")
	if l.firstGap != 4 {
		t.Fatalf("gap = %d, want 4: 0-3 decided, 4 open", l.firstGap)
	}
	l.insert(4, "v4")
	if l.firstGap != 7 {
		t.Fatalf("gap = %d, want 7: the islands joined the prefix", l.firstGap)
	}

	// Releasing and forgetting move live and low; addressing stays by
	// instance number.
	l.release(6)
	l.forgetBelow(6)
	if l.low != 6 || l.decided != 1 || len(l.slots) != 4 {
		t.Fatalf("low %d decided %d slots %d after forgetting below 6", l.low, l.decided, len(l.slots))
	}
	if v, ok := l.get(6); !ok || v != "v6" {
		t.Fatalf("instance 6 reads %q,%v across the horizon move", v, ok)
	}
	if l.at(5) != nil || *l.at(8) != (slot{}) || *l.at(9) != (slot{v: "a9", b: b}) {
		t.Fatal("slots did not keep their instances when the horizon moved")
	}
	if l.insert(2, "zombie") {
		t.Fatal("insert below the horizon accepted")
	}
	l.release(99) // both capped at the decided prefix
	l.forgetBelow(99)
	if l.low != 7 || l.decided != 0 || l.voted != 1 {
		t.Fatalf("low %d decided %d voted %d, want the horizon capped at firstGap 7", l.low, l.decided, l.voted)
	}
	l.insert(7, "v7")
	l.accept(12, b, "a12")
	if l.firstGap != 8 || l.end() != 13 {
		t.Fatalf("gap %d end %d after growing the pruned window", l.firstGap, l.end())
	}
}

// snapStore is a Store that recovers a given State and logs nothing.
type snapStore struct {
	durable.Store
	st *durable.State
}

func (s snapStore) State() *durable.State { return s.st }

func TestRestoreAtLargeSnapIndexKeepsWindowSmall(t *testing.T) {
	const base = 1 << 40 // a window indexed from 0 would not fit in memory
	// One follower of five: a vote alone decides nothing.
	b := consensus.MakeBallot(3, 1, 5)
	st := &durable.State{
		Promised: uint64(b), SnapIndex: base, SnapCount: 5 * base,
		Decided:  []durable.DecidedRec{{Inst: base, V: "d0"}, {Inst: base + 1, V: "d1"}, {Inst: base + 4, V: "island"}},
		Accepted: []durable.AcceptedRec{{Inst: base - 3, B: uint64(b), V: "stale"}, {Inst: base + 1, B: uint64(b), V: "d1"}, {Inst: base + 2, B: uint64(b), V: "voted"}},
	}
	r := New(consensus.StaticLeader(1), Config{Store: snapStore{durable.Nop, st}})
	env := newFakeEnv(2, 5)
	r.Start(env)
	if r.MinDone() != base || r.FirstGap() != base+2 || r.HighestDecided() != base+4 || r.Retained() != 3 {
		t.Fatalf("low %d gap %d highest %d retained %d", r.MinDone(), r.FirstGap(), r.HighestDecided(), r.Retained())
	}
	if len(r.log.slots) != 5 || r.log.voted != 1 {
		t.Fatalf("window holds %d slots and %d votes, want 5 and 1", len(r.log.slots), r.log.voted)
	}
	if r.Applied() != 5*base+2 {
		t.Fatalf("applied %d, want the snapshot count plus the two replayed entries", r.Applied())
	}
	if d, ok := r.Recorder().Get(base + 1); !ok || d.Value != "d1" || r.Recorder().Count() != 2 {
		t.Fatalf("recorder after replay: %+v,%v of %d", d, ok, r.Recorder().Count())
	}
	// What a preparer hears about, in instance order: the decided prefix,
	// the surviving vote, and the island decided above it.
	r.Deliver(1, PrepareMsg{B: b + 5})
	out := env.drain()
	p, ok := out[len(out)-1].msg.(PromiseMsg)
	if !ok || !slices.Equal(p.Entries, []PromEntry{{Inst: base + 2}, {Inst: base + 2, AccB: b, AccV: "voted"}, {Inst: base + 4, AccV: "island"}}) {
		t.Fatalf("promise after restore = %+v", out)
	}
	// Filling the gap applies through the island and the horizon follows.
	r.Deliver(1, &DecideMsg{Inst: base + 2, V: "voted"})
	r.Deliver(1, &DecideMsg{Inst: base + 3, V: "d3"})
	r.Deliver(1, &AcceptMsg{B: b + 5, Inst: base + 5, V: "next", MinDone: base + 4})
	if r.FirstGap() != base+5 || r.MinDone() != base+4 || r.Retained() != 1 || r.log.voted != 1 {
		t.Fatalf("gap %d low %d retained %d voted %d after catching up", r.FirstGap(), r.MinDone(), r.Retained(), r.log.voted)
	}
}

// saturatedLeader is a prepared 3-process leader whose window (1) is
// taken by an instance nobody acks, with backlog commands queued behind.
func saturatedLeader(tb testing.TB, backlog int) (*Node, *fakeEnv) {
	r, env := prepareLeaderCfg(tb, nil, Config{Window: 1, BatchMax: 16})
	env.mute = true
	r.Submit("first")
	if r.pipe.open != 1 {
		tb.Fatalf("open = %d, want the window taken", r.pipe.open)
	}
	for i := 0; i < backlog; i++ {
		r.Submit(consensus.Value(fmt.Sprint("backlog-", i)))
	}
	return r, env
}

func TestFutilePumpIsFree(t *testing.T) {
	// Window full, 100 commands queued: nothing can be proposed, and
	// finding that out must not look at the queue.
	r, _ := saturatedLeader(t, 100)
	if got := testing.AllocsPerRun(100, func() { r.pump(false) }); got != 0 {
		t.Fatalf("pump with a full window allocates %.0f times", got)
	}
	// Window open but busy, and less than a batch queued: same.
	r, env := prepareLeaderCfg(t, nil, Config{Window: 8, BatchMax: 16})
	env.mute = true
	r.Submit("in flight")
	for i := 0; i < 5; i++ {
		r.Submit("waits for a fuller batch")
	}
	if r.pipe.open != 1 || r.bat.tail-r.bat.next != 5 {
		t.Fatalf("open %d, unassigned %d: want one instance in flight and 5 queued", r.pipe.open, r.bat.tail-r.bat.next)
	}
	if got := testing.AllocsPerRun(100, func() { r.pump(false) }); got != 0 {
		t.Fatalf("pump with a partial batch allocates %.0f times", got)
	}
	if r.pipe.open != 1 {
		t.Fatal("pump proposed a partial batch while another instance was in flight")
	}
}

func TestRequestOfOneRawCommandAllocatesAtMostOnce(t *testing.T) {
	r, _ := saturatedLeader(t, 0)
	var m node.Message = &RequestMsg{V: "one raw command, as independent clients send them"}
	if got := testing.AllocsPerRun(2000, func() { r.Deliver(1, m) }); got != 0 {
		t.Fatalf("a one-command request allocates %.0f times on arrival, want 0 amortised", got)
	}
	if r.bat.tail-r.bat.head < 2000 {
		t.Fatal("the requests were not queued")
	}
}

// TestFollowerForwardsAllocateNothing: a follower's Submit forwards its
// command in a REQ, and its Read in a READ, each cut from a slab: 0
// allocations amortised. A client that submits at a follower, as
// sim_steady's does, pays a REQ per write.
func TestFollowerForwardsAllocateNothing(t *testing.T) {
	r := New(consensus.StaticLeader(1), Config{})
	env := newFakeEnv(0, 3)
	env.mute = true
	r.Start(env)
	seq := uint64(0)
	for name, op := range map[string]func(){
		"Submit": func() { r.Submit("x"); r.bat.retire("x") },
		"Read":   func() { seq++; r.Read(seq, 1) },
	} {
		if got := testing.AllocsPerRun(2000, op); got != 0 {
			t.Errorf("a follower's %s allocates %.0f times, want 0 amortised", name, got)
		}
	}
}

func TestApplyAllocatesNothingPerCommand(t *testing.T) {
	perBatch := func(k int) float64 {
		cmds := make([]consensus.Value, k)
		for i := range cmds {
			cmds[i] = consensus.Value(fmt.Sprint("command-", i))
		}
		r := New(consensus.StaticLeader(1), Config{})
		env := newFakeEnv(2, 3)
		env.mute = true
		r.Start(env)
		applied := 0
		r.OnApply(func(int, int, consensus.Value) { applied++ })
		inst, v := 0, encodeBatch(new(node.Arena), cmds) // built once: the pin counts the decision, not its making
		decide := func() {
			var m node.Message = &DecideMsg{Inst: inst, V: v}
			r.Deliver(1, m)
			inst++
		}
		for i := 0; i < 4*1024/k+1; i++ { // leave the Recorder's first, doubling chunk
			decide()
		}
		got := testing.AllocsPerRun(200, decide)
		if applied != inst*k || r.Recorder().Count() != applied {
			t.Fatalf("applied %d, recorded %d of %d commands", applied, r.Recorder().Count(), inst*k)
		}
		return got
	}
	if one, sixteen := perBatch(2), perBatch(16); one != 0 || sixteen != 0 {
		t.Fatalf("applying a 16-command batch allocates %.0f times, a 2-command batch %.0f: want 0", sixteen, one)
	}
}

func BenchmarkBatcherPumpFull(b *testing.B) {
	r, _ := saturatedLeader(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.pump(false)
	}
}

func BenchmarkApplyBatch16(b *testing.B) {
	cmds := make([]consensus.Value, 16)
	for i := range cmds {
		cmds[i] = consensus.Value(fmt.Sprintf("command-%02d-with-a-64-byte-payload-like-the-benchmark-sends....", i))
	}
	v := encodeBatch(new(node.Arena), cmds)
	r := New(consensus.StaticLeader(1), Config{})
	env := newFakeEnv(2, 3)
	env.mute = true
	r.Start(env)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.learn(i, v)
	}
	if r.Applied() != 16*b.N {
		b.Fatalf("applied %d of %d", r.Applied(), 16*b.N)
	}
}

// BenchmarkFollowerCommit is a follower's whole share of one instance:
// the ACCEPT of a 16-command envelope (vote, reply) carrying the horizon as
// every leader's does, then the commit index that covers it (decide from
// the vote, apply, forget). The value arrives once; deciding, applying and
// forgetting it must add no allocation to what the vote costs.
func BenchmarkFollowerCommit(b *testing.B) {
	cmds := make([]consensus.Value, 16)
	for i := range cmds {
		cmds[i] = consensus.Value(fmt.Sprintf("command-%02d-with-a-64-byte-payload-like-the-benchmark-sends....", i))
	}
	v := encodeBatch(new(node.Arena), cmds)
	ballot := consensus.MakeBallot(0, 1, 3)
	r := New(consensus.StaticLeader(1), Config{})
	env := newFakeEnv(2, 3)
	env.mute = true
	r.Start(env)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.onAccept(1, AcceptMsg{B: ballot, Inst: i, V: v, CommitUpTo: i, MinDone: i})
		r.onCommit(ballot, i+1)
	}
	if r.Applied() != 16*b.N {
		b.Fatalf("applied %d of %d", r.Applied(), 16*b.N)
	}
}
