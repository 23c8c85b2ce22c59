package consensus

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/node"
	"repro/internal/sim"
)

// decisionKey identifies one command slot: batching means an instance can
// decide several commands, each recorded once.
type decisionKey struct {
	inst, cmd int
}

// refRecorder is the map-and-slice Recorder this package began with: one
// Decision per command slot, first record wins, arrival order kept. It is
// the model every layout since is held to.
type refRecorder struct {
	decisions map[decisionKey]Decision
	order     []Decision
}

func newRef() *refRecorder { return &refRecorder{decisions: make(map[decisionKey]Decision)} }

func (m *refRecorder) record(d Decision) {
	key := decisionKey{d.Instance, d.Cmd}
	if _, ok := m.decisions[key]; !ok {
		m.decisions[key] = d
		m.order = append(m.order, d)
	}
}

// recordInstance is RecordInstance by its definition: every command of the
// value, slot by slot.
func (m *refRecorder) recordInstance(inst int, v Value, at sim.Time, by node.ID, enq []sim.Time) {
	for k, cmd := range testSplit(nil, v) {
		d := Decision{Instance: inst, Cmd: k, Value: cmd, At: at, By: by}
		if k < len(enq) {
			d.Elapsed = at.Sub(enq[k])
		}
		m.record(d)
	}
}

// testMark begins an envelope in the tests' own batch format (rsm's is its
// own business): the marker, then each command behind a one-byte length. As
// in rsm, anything else — a malformed envelope too — is one raw command.
const testMark = "\x00b"

func testPack(cmds ...Value) Value {
	var sb strings.Builder
	sb.WriteString(testMark)
	for _, c := range cmds {
		sb.WriteByte(byte(len(c)))
		sb.WriteString(string(c))
	}
	return Value(sb.String())
}

func testSplit(cmds []Value, v Value) []Value {
	body, ok := strings.CutPrefix(string(v), testMark)
	if !ok {
		return append(cmds, v)
	}
	base := len(cmds)
	for body != "" {
		n := int(body[0])
		if len(body) < 1+n {
			return append(cmds[:base], v)
		}
		cmds, body = append(cmds, Value(body[1:1+n])), body[1+n:]
	}
	return cmds
}

func newSplitRecorder() *Recorder { return &Recorder{Split: testSplit} }

// read is what a Recorder answers for a decision the model holds: the
// hooks are handed At and Elapsed, and the log keeps neither.
func read(d Decision) Decision {
	d.At, d.Elapsed = 0, 0
	return d
}

// checkAgainst compares every observable of r with the model, probing
// all slots in a box around what was recorded so misses are checked too.
func checkAgainst(t *testing.T, r *Recorder, m *refRecorder, lo, hi, cmds int) {
	t.Helper()
	if r.Count() != len(m.order) {
		t.Fatalf("Count = %d, model %d", r.Count(), len(m.order))
	}
	order := make([]Decision, len(m.order))
	for i, d := range m.order {
		order[i] = read(d)
	}
	all := r.All()
	var each []Decision
	r.Each(func(d Decision) { each = append(each, d) })
	if !slices.Equal(all, order) || !slices.Equal(each, order) {
		for i, d := range order {
			if i >= len(all) || all[i] != d || i >= len(each) || each[i] != d {
				t.Fatalf("decision %d: model %+v, All and Each have %d and %d and differ there", i, d, len(all), len(each))
			}
		}
		t.Fatalf("All has %d decisions and Each %d, model %d", len(all), len(each), len(m.order))
	}
	for inst := lo - 2; inst < hi+2; inst++ {
		for cmd := -1; cmd < cmds+1; cmd++ {
			got, ok := r.GetCmd(inst, cmd)
			want, wok := m.decisions[decisionKey{inst, cmd}]
			if ok != wok || got != read(want) {
				t.Fatalf("GetCmd(%d,%d) = %+v,%v, model %+v,%v", inst, cmd, got, ok, want, wok)
			}
		}
		got, ok := r.Get(inst)
		want, wok := m.decisions[decisionKey{inst, 0}]
		if ok != wok || got != read(want) {
			t.Fatalf("Get(%d) = %+v,%v, model %+v,%v", inst, got, ok, want, wok)
		}
	}
}

// modelRun drives a Recorder and the model side by side.
type modelRun struct {
	t      *testing.T
	rng    *rand.Rand
	r      *Recorder
	m      *refRecorder
	told   []Decision
	lo, hi int
	seen   []int
}

func newModelRun(t *testing.T) *modelRun {
	f := &modelRun{t: t, rng: rand.New(rand.NewSource(20040725)), r: newSplitRecorder(), m: newRef(), lo: 1 << 62, hi: -1 << 62}
	f.r.AddNotify(func(d Decision) { f.told = append(f.told, d) })
	return f
}

// feed records something at inst, at step i: any op, or with slots false
// only what rsm's applier records, a whole instance.
func (f *modelRun) feed(inst, i int, slots bool) {
	r, m, rng := f.r, f.m, f.rng
	f.seen = append(f.seen, inst)
	f.lo, f.hi = min(f.lo, inst), max(f.hi, inst)
	at, by := sim.Time(1000+i), node.ID(3)
	val := func(k int) Value { return Value(fmt.Sprint("v", i, ".", k)) }
	op := rng.Intn(10)
	if !slots {
		op = 3 + rng.Intn(7)
	}
	switch {
	case op < 3: // one command slot, k > 0 included, as single-decree protocols and old callers record
		d := Decision{Instance: inst, Cmd: rng.Intn(5), Value: val(0), At: at, By: by}
		if rng.Intn(2) == 0 {
			d.Elapsed = time.Duration(1+rng.Intn(50)) * time.Microsecond
		}
		r.Record(d)
		m.record(d)
	case op < 8: // an instance of 0..5 commands in an envelope
		vs := make([]Value, rng.Intn(6))
		for k := range vs {
			vs[k] = val(k)
		}
		var enq []sim.Time // the proposing leader's, sometimes short
		for k := rng.Intn(len(vs) + 1); rng.Intn(2) == 0 && len(enq) < k; {
			enq = append(enq, at-sim.Time(1+rng.Intn(900)))
		}
		r.RecordInstance(inst, testPack(vs...), at, by, enq)
		m.recordInstance(inst, testPack(vs...), at, by, enq)
	case op == 8: // a lone raw command
		r.RecordInstance(inst, val(0), at, by, []sim.Time{at - 5})
		m.recordInstance(inst, val(0), at, by, []sim.Time{at - 5})
	default: // a lone command that itself starts with the marker, so wrapped
		v := testPack(testMark + val(0))
		r.RecordInstance(inst, v, at, by, nil)
		m.recordInstance(inst, v, at, by, nil)
	}
}

// check compares the two over the instances [lo, hi], and says whether the
// log is still dense: no keys, and no index.
func (f *modelRun) check(lo, hi int, dense bool) {
	f.t.Helper()
	checkAgainst(f.t, f.r, f.m, lo, hi, 5)
	if got := f.r.keys == nil; got != dense || dense && cap(f.r.sorted) != 0 {
		f.t.Fatalf("dense = %v (index of %d), want %v", got, cap(f.r.sorted), dense)
	}
	if !dense && len(f.r.keys) != len(f.r.log) {
		f.t.Fatalf("%d keys for %d rows", len(f.r.keys), len(f.r.log))
	}
	if !slices.Equal(f.told, f.m.order) {
		f.t.Fatalf("the hook saw %d decisions, not the model's %d in its order", len(f.told), len(f.m.order))
	}
}

// TestRecorderMatchesMapModel: whatever mix of Record and RecordInstance
// arrives, in whatever order, every query answers as one Decision per
// command slot in arrival order would, without At or Elapsed, and the hooks
// see each first-time decision once, in that order, both included. Every run begins as rsm's
// applier records — whole instances, in order, from the shape's first — and
// stays dense, with no keys and no index, until one breaker arrives: a gap,
// an older instance, or a Record. Then the shape's stream of anything at
// all. The lone commands that begin with the marker, wrapped in envelopes,
// read back whole on either side of the switch (the box checked covers the
// whole dense prefix). A stream that keeps its keys in (instance, command)
// order — the in-order shapes after a gap or a Record of the next slot — is
// searched in place and holds no index; the in-order shape has its first
// late duplicate only once its log is large, so its index is built from many
// rows at once.
func TestRecorderMatchesMapModel(t *testing.T) {
	const dense, steps = 400, 3000
	t.Run("applier", func(t *testing.T) { // never broken, at a base far from 0
		f := newModelRun(t)
		for i := 0; i < steps; i++ {
			f.feed(1<<40+i, i, false)
			if i%997 == 0 {
				f.check(f.lo, f.hi, true)
			}
		}
		f.check(f.lo, f.hi, true)
	})
	// Each shape is a stream of instance numbers.
	shapes := map[string]func(rng *rand.Rand, i int) int{
		// Instances in order.
		"in-order": func(_ *rand.Rand, i int) int { return i },
		// The same after a restore at a large snapshot index.
		"restored": func(_ *rand.Rand, i int) int { return 1<<40 + i },
		// Anything at all in a small box: out of order, sparse, repeated.
		"random": func(rng *rand.Rand, _ int) int { return 100 + rng.Intn(60) },
		// Instances descending: every one lands below the first.
		"descending": func(_ *rand.Rand, i int) int { return 5000 - i },
		// Holes no index could span: nothing may be sized by an instance number.
		"sparse": func(rng *rand.Rand, i int) int { return 7 + i*(1+rng.Intn(3)<<40) },
	}
	// The step at which a shape's late duplicates begin; 0 for the rest.
	lateFrom := map[string]int{"in-order": 2000, "restored": steps}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) { testBreakers(t, shape, dense, steps, lateFrom[name], name == "restored") })
	}
}

// testBreakers is TestRecorderMatchesMapModel for one shape: a dense prefix,
// then each breaker in a run of its own, then the shape's stream. A stream
// inOrder keeps its keys in order to the end, unless an older instance broke
// the log.
func testBreakers(t *testing.T, shape func(rng *rand.Rand, i int) int, dense, steps, lateFrom int, inOrder bool) {
	for _, brk := range []string{"gap", "older", "record"} {
		t.Run(brk, func(t *testing.T) {
			f := newModelRun(t)
			base := shape(f.rng, 0)
			for i := 0; i < dense; i++ {
				f.feed(base+i, i, false)
			}
			f.check(base, base+dense, true)
			switch brk {
			case "gap": // the instance after next
				f.feed(base+dense+1, dense, false)
			case "older":
				f.feed(base+f.rng.Intn(dense), dense, false)
			case "record": // a slot of the next instance, in (instance, command) order
				d := Decision{Instance: base + dense, Value: "recorded", At: 9, By: 3}
				f.seen = append(f.seen, d.Instance)
				f.r.Record(d)
				f.m.record(d)
			}
			f.check(base, base+dense+2, false)
			for i := dense + 2; i < steps; i++ {
				if i == lateFrom && brk != "older" && cap(f.r.sorted) != 0 {
					t.Fatalf("an index of capacity %d before the first of %d rows arrived out of order", cap(f.r.sorted), len(f.r.log))
				}
				f.feed(shape(f.rng, i), i, true)
				if i >= lateFrom && f.rng.Intn(4) == 0 {
					f.feed(f.seen[f.rng.Intn(len(f.seen))], -i, true) // a late duplicate, with other values
				}
				if i%997 == 0 {
					f.check(f.lo, min(f.hi, f.lo+300), false)
				}
			}
			f.check(f.lo, min(f.hi, f.lo+700), false)
			f.check(base, base+dense+2, false)
			switch indexed := len(f.r.sorted) > 0; {
			case inOrder && brk != "older" && indexed:
				t.Fatalf("an index of capacity %d for %d rows recorded in order", cap(f.r.sorted), len(f.r.log))
			case (indexed || !inOrder) && (len(f.r.sorted) != len(f.r.log) || cap(f.r.sorted) > 2*len(f.r.log)+64):
				t.Fatalf("index of %d (cap %d) for %d rows: sized by something else than the rows", len(f.r.sorted), cap(f.r.sorted), len(f.r.log))
			}
		})
	}
}

// TestRecorderKeepsAnInstanceInOneRow: what the layout is for. A batched
// instance costs one row whatever it carries, at a follower and at the
// leader that proposed it alike: each decision's learn time, and the
// leader's Elapsed for the instances it led, reach the hooks and are not
// kept. Both record in order, so neither keys its rows: a row is its value.
func TestRecorderKeepsAnInstanceInOneRow(t *testing.T) {
	if got := unsafe.Sizeof(row{}); got != 16 {
		t.Fatalf("a row is %d bytes, want 16: a value", got)
	}
	leader, follower := newSplitRecorder(), newSplitRecorder()
	const n, k = 300, 4
	led := func(i int) bool { return i < 100 || i >= 200 } // the middle third was led by someone else
	var told []Decision
	leader.AddNotify(func(d Decision) { told = append(told, d) })
	for i := 0; i < n; i++ {
		v, at := testPack("a", "b", "c", "d"), sim.Time(10*i+9)
		follower.RecordInstance(i, v, at, 1, nil)
		var enq []sim.Time
		if led(i) {
			enq = []sim.Time{at - 1, at - 2, at - 3, at - 4}
		}
		leader.RecordInstance(i, v, at, 0, enq)
	}
	for _, r := range []*Recorder{follower, leader} {
		if len(r.log) != n || cap(r.log) > 2*n || r.Count() != n*k || cap(r.keys) != 0 || cap(r.sorted) != 0 {
			t.Fatalf("%d rows (cap %d), %d decisions, %d keys, index of %d; want %d, %d, 0, 0",
				len(r.log), cap(r.log), r.Count(), cap(r.keys), cap(r.sorted), n, n*k)
		}
	}
	if len(told) != n*k {
		t.Fatalf("the leader's hook was told %d decisions, want %d", len(told), n*k)
	}
	for p, d := range leader.All() {
		want := time.Duration(0)
		if led(p / k) {
			want = time.Duration(1 + p%k)
		}
		at := sim.Time(10*(p/k) + 9)
		if got, _ := leader.GetCmd(p/k, p%k); told[p].Elapsed != want || told[p].At != at || d.Elapsed != 0 || d.At != 0 || got != d || d.Instance != p/k || d.Cmd != p%k {
			t.Fatalf("decision %d: All %+v, GetCmd %+v, the hook told %+v; want it told Elapsed %v at %v, and 0 read back", p, d, got, told[p], want, at)
		}
	}
}

func TestRecorderConcurrentRecordAndAll(t *testing.T) {
	// Live transports read the recorder from other goroutines while the
	// event loop records: run under -race. Every snapshot must be a
	// prefix of the final log.
	r := NewRecorder()
	const writers, per = 4, 2048
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(Decision{Instance: i, Cmd: w, Value: Value(fmt.Sprint(w, "/", i))})
			}
		}(w)
	}
	snaps := make(chan []Decision, 64) // every snapshot taken: the reader never waits for the checker
	go func() {
		defer close(snaps)
		for i := 0; i < 64; i++ {
			snaps <- r.All()
			r.Count()
			r.GetCmd(i, 1)
		}
	}()
	var kept [][]Decision
	for s := range snaps {
		kept = append(kept, s)
	}
	wg.Wait()
	final := r.All()
	if len(final) != writers*per || r.Count() != writers*per {
		t.Fatalf("recorded %d (Count %d), want %d", len(final), r.Count(), writers*per)
	}
	for _, s := range kept {
		for i := range s {
			if s[i] != final[i] {
				t.Fatalf("snapshot of %d diverges from the final log at %d", len(s), i)
			}
		}
	}
	for i := 0; i < per; i++ {
		for w := 0; w < writers; w++ {
			if d, ok := r.GetCmd(i, w); !ok || d.Value != Value(fmt.Sprint(w, "/", i)) {
				t.Fatalf("GetCmd(%d,%d) = %+v,%v", i, w, d, ok)
			}
		}
	}
}

// TestRecorderConcurrentEachAndRecordInstance: the applier records instances
// while a checker or a scrape walks the log (run under -race). A walk sees
// whole instances only, in order, and what it sees is a prefix of the log.
func TestRecorderConcurrentEachAndRecordInstance(t *testing.T) {
	r := newSplitRecorder()
	const n = 4000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			r.RecordInstance(i, testPack("x", Value(fmt.Sprint(i)), "z"), sim.Time(i), 2, []sim.Time{0, 0, 0})
		}
	}()
	walk := func() int {
		seen := 0
		r.Each(func(d Decision) {
			want := Decision{Instance: seen / 3, Cmd: seen % 3, Value: "x", By: 2}
			switch seen % 3 {
			case 1:
				want.Value = Value(fmt.Sprint(seen / 3))
			case 2:
				want.Value = "z"
			}
			if d != want {
				t.Errorf("decision %d of a walk: %+v, want %+v", seen, d, want)
			}
			seen++
		})
		if seen%3 != 0 {
			t.Errorf("a walk ended inside an instance, after %d decisions", seen)
		}
		return seen
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			walk()
		}
	}
	if got := walk(); got != 3*n || r.Count() != 3*n {
		t.Fatalf("the last walk saw %d decisions of %d (Count %d)", got, 3*n, r.Count())
	}
}

// TestRecorderEachRunsOutsideTheLock: fn may use the recorder, and the walk
// covers what was held when it began.
func TestRecorderEachRunsOutsideTheLock(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 3; i++ {
		r.Record(Decision{Instance: i, Value: "v"})
	}
	seen := 0
	r.Each(func(d Decision) {
		seen++
		r.Record(Decision{Instance: d.Instance + 3, Value: "later"})
	})
	if seen != 3 || r.Count() != 6 {
		t.Fatalf("walked %d decisions and holds %d, want 3 and 6", seen, r.Count())
	}
}

// TestRecorderDenseFromAnyBase: a log recorded in order from wherever a
// replica starts applying — a snapshot's index, here — is dense from its
// first row: it allocates no keys and no index, and answers for the
// instances it holds and for nothing else.
func TestRecorderDenseFromAnyBase(t *testing.T) {
	for _, base := range []int{0, 1, 977, 1 << 40} {
		r := newSplitRecorder()
		for i := 0; i < 100; i++ {
			r.RecordInstance(base+i, testPack("x", Value(fmt.Sprint(i))), sim.Time(i), 1, nil)
		}
		if r.keys != nil || r.sorted != nil || r.Count() != 200 {
			t.Fatalf("base %d: %d keys and %d index for %d decisions in order", base, cap(r.keys), cap(r.sorted), r.Count())
		}
		for _, inst := range []int{base - 1, base, base + 50, base + 99, base + 100} {
			d, ok := r.GetCmd(inst, 1)
			if want := inst >= base && inst < base+100; ok != want || ok && (d.Instance != inst || d.Value != Value(fmt.Sprint(inst-base))) {
				t.Fatalf("base %d: GetCmd(%d, 1) = %+v,%v", base, inst, d, ok)
			}
		}
	}
}

// TestRecorderValueIsTheDecidedValue: a dense log answers Value with an
// instance's value exactly as it was decided — a batch envelope whole, a raw
// command, and a lone command that begins with the batch marker still in
// its envelope — which is what rsm serves a replica that asks for a
// decision it has applied. A keyed log holds a lone command bare, so it
// answers false for every instance, as every log does for one it never
// recorded.
func TestRecorderValueIsTheDecidedValue(t *testing.T) {
	const base = 977
	vs := []Value{testPack("a", "b"), "raw", testPack(testMark + "x")}
	r := newSplitRecorder()
	for i, v := range vs {
		r.RecordInstance(base+i, v, sim.Time(i), 1, nil)
	}
	for i, want := range vs {
		if got, ok := r.Value(base + i); !ok || got != want {
			t.Fatalf("Value(%d) = %q,%v, want %q as decided", base+i, got, ok, want)
		}
	}
	for _, inst := range []int{base - 1, base + len(vs), -1 << 62, 1 << 62} {
		if v, ok := r.Value(inst); ok {
			t.Fatalf("Value(%d) = %q of an instance never recorded", inst, v)
		}
	}
	r.RecordInstance(base+len(vs)+1, vs[0], 9, 1, nil) // a gap keys the log
	recorded := NewRecorder()
	recorded.Record(Decision{Instance: base, Value: "v"})
	for _, keyed := range []*Recorder{r, recorded} {
		if keyed.keys == nil {
			t.Fatal("a gap or a Record left the log dense")
		}
		for inst := base - 1; inst <= base+len(vs)+2; inst++ {
			if v, ok := keyed.Value(inst); ok {
				t.Fatalf("a keyed log answers Value(%d) = %q", inst, v)
			}
		}
	}
	if d, ok := r.GetCmd(base+2, 0); !ok || d.Value != testMark+"x" {
		t.Fatalf("the marked command reads back %+v,%v once keyed", d, ok)
	}
}

func TestRecorderRecordAllocatesOnlyToGrow(t *testing.T) {
	// A follower's log, then a leader's, each once dense and once keyed by a
	// Record beside every instance. With room in the log and its keys — they
	// grow by amortised doubling — recording an instance allocates nothing:
	// no closure for the splitter, no slice for the commands, whatever the
	// batch holds, and nothing for the leader's Elapsed, which no hook is
	// here to take. All arrive in order, so none builds an index.
	v := testPack("a", "b", "c", "d")
	for _, enq := range [][]sim.Time{nil, {1, 2, 3, 4}} {
		for _, keyed := range []bool{false, true} {
			r := newSplitRecorder()
			inst := 0
			record := func() {
				r.RecordInstance(inst, v, 9, 1, enq)
				if keyed {
					r.Record(Decision{Instance: inst, Cmd: 7, Value: "v", By: 1}) // and the one-command row
				}
				inst++
			}
			record()
			r.log = slices.Grow(r.log, 512)
			if keyed {
				r.keys = slices.Grow(r.keys, 512)
			}
			if got := testing.AllocsPerRun(200, record); got != 0 || cap(r.sorted) != 0 || (r.keys != nil) != keyed {
				t.Fatalf("enq %v, keyed %v: recording allocates %.2f times an instance with room to spare, want 0; %d keys, index of %d",
					enq, keyed, got, len(r.keys), cap(r.sorted))
			}
		}
	}
}

var benchDecision Decision

func BenchmarkRecorderRecord(b *testing.B) {
	// The rsm applier's pattern at a follower: instances in order, 4
	// commands each, one op a command. B/op is what a decision costs to
	// keep: its quarter of a 16-byte row, growth slack included.
	b.ReportAllocs()
	r := newSplitRecorder()
	v := testPack("a", "b", "c", "d")
	for i := 0; i < b.N; i += 4 {
		r.RecordInstance(i/4, v, 9, 1, nil)
	}
	benchDecision, _ = r.GetCmd((b.N-1)/4, (b.N-1)%4)
}

func BenchmarkRecordInstanceInOrder(b *testing.B) {
	// The same at the leader that proposed the instances, each command's
	// enqueue instant given. B/op: a quarter of a 16-byte row, growth slack
	// included, as at a follower: the learn time and the Elapsed are the
	// hooks', and the log keeps neither. It stays dense (no keys, no index),
	// which the end checks.
	b.ReportAllocs()
	r := newSplitRecorder()
	v, enq := testPack("a", "b", "c", "d"), []sim.Time{1, 2, 3, 4}
	for i := 0; i < b.N; i += 4 {
		r.RecordInstance(i/4, v, 9, 0, enq)
	}
	if benchDecision, _ = r.GetCmd((b.N-1)/4, (b.N-1)%4); r.keys != nil || r.sorted != nil || benchDecision.Elapsed != 0 || benchDecision.At != 0 {
		b.Fatalf("%d keys, last decision %+v: want a dense log that keeps no learn time and no Elapsed", len(r.keys), benchDecision)
	}
}
