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

// refRecorder is the map-and-slice Recorder this package began with — one
// Decision per command slot, arrival order kept — under the rule rsm's
// applier records by: instances in order from the first, whatever it is.
// It is the model every layout since is held to.
type refRecorder struct {
	decisions map[decisionKey]Decision
	order     []Decision
	values    map[int]Value
	next      int
}

func newRef() *refRecorder {
	return &refRecorder{decisions: make(map[decisionKey]Decision), values: make(map[int]Value)}
}

// recordInstance is RecordInstance by its definition: the first instance,
// or the one after the last, is recorded slot by slot, each command with
// its learn time and, where enq has it, its Elapsed; one recorded already
// or below the first is ignored; one past the next is a gap, reported.
func (m *refRecorder) recordInstance(inst int, v Value, at sim.Time, by node.ID, enq []sim.Time) (gap bool) {
	if len(m.values) > 0 && inst != m.next {
		return inst > m.next
	}
	m.values[inst], m.next = v, inst+1
	for k, cmd := range testSplit(nil, v) {
		d := Decision{Instance: inst, Cmd: k, Value: cmd, At: at, By: by}
		if k < len(enq) {
			d.Elapsed = at.Sub(enq[k])
		}
		m.decisions[decisionKey{inst, k}] = d
		m.order = append(m.order, d)
	}
	return false
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
		v, ok := r.Value(inst)
		wv, wok := m.values[inst]
		if ok != wok || v != wv {
			t.Fatalf("Value(%d) = %q,%v, model %q,%v", inst, v, ok, wv, wok)
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

// feed offers inst, with a value made at step i, to both: an envelope of 0
// to 5 commands, a lone raw command, or a lone command that itself begins
// with the marker, so wrapped. Where the model reports a gap the Recorder
// must panic, naming the instance, and change nothing.
func (f *modelRun) feed(inst, i int) {
	rng := f.rng
	f.seen = append(f.seen, inst)
	f.lo, f.hi = min(f.lo, inst), max(f.hi, inst)
	at, by := sim.Time(1000+i), node.ID(3)
	val := func(k int) Value { return Value(fmt.Sprint("v", i, ".", k)) }
	var v Value
	var enq []sim.Time // the proposing leader's, sometimes short
	switch op := rng.Intn(7); {
	case op < 5:
		vs := make([]Value, rng.Intn(6))
		for k := range vs {
			vs[k] = val(k)
		}
		for k := rng.Intn(len(vs) + 1); rng.Intn(2) == 0 && len(enq) < k; {
			enq = append(enq, at-sim.Time(1+rng.Intn(900)))
		}
		v = testPack(vs...)
	case op == 5:
		v, enq = val(0), []sim.Time{at - 5}
	default:
		v = testPack(testMark + val(0))
	}
	gap := f.m.recordInstance(inst, v, at, by, enq)
	got := recovered(func() { f.r.RecordInstance(inst, v, at, by, enq) })
	if gap != (got != nil) || gap && !strings.HasPrefix(fmt.Sprint(got), fmt.Sprintf("consensus: instance %d ", inst)) {
		f.t.Fatalf("instance %d with %d next: panic %v, want one naming it: %v", inst, f.m.next, got, gap)
	}
}

// recovered runs fn and returns what it panicked with, or nil.
func recovered(fn func()) (p any) {
	defer func() { p = recover() }()
	fn()
	return nil
}

// check compares the two over the instances [lo, hi], and the decisions the
// hook was told with the model's, learn times and Elapsed included.
func (f *modelRun) check(lo, hi int) {
	f.t.Helper()
	checkAgainst(f.t, f.r, f.m, lo, hi, 5)
	if len(f.r.log) != len(f.m.values) {
		f.t.Fatalf("%d rows for the model's %d instances", len(f.r.log), len(f.m.values))
	}
	if !slices.Equal(f.told, f.m.order) {
		f.t.Fatalf("the hook saw %d decisions, not the model's %d in its order", len(f.told), len(f.m.order))
	}
}

// TestRecorderMatchesMapModel: whatever instances are offered, in whatever
// order, the Recorder answers every query as the model does — one Decision
// per command slot of each instance recorded in order from the first, At
// and Elapsed not kept — and the hooks see each recorded decision once, in
// that order, both included. An instance recorded already or below the
// first is ignored; one past the next panics, naming it, and changes
// nothing. Every run but the applier's begins with a dense prefix from the
// shape's first instance, as rsm's applier records, then one instance of a
// kind: past the next (gap), older (older), or the next (record). Then, step
// by step, the applier's next instance and the shape's; from lateFrom on,
// an instance already offered, again, with another value.
func TestRecorderMatchesMapModel(t *testing.T) {
	const dense, steps = 400, 3000
	t.Run("applier", func(t *testing.T) { // in order at a base far from 0
		f := newModelRun(t)
		for i := 0; i < steps; i++ {
			f.feed(1<<40+i, i)
			if i%997 == 0 {
				f.check(f.lo, f.hi)
			}
		}
		f.check(f.lo, f.hi)
	})
	// Each shape is a stream of instance numbers.
	shapes := map[string]func(rng *rand.Rand, i int) int{
		// Instances in order, from 0.
		"in-order": func(_ *rand.Rand, i int) int { return i },
		// The same after a restore at a large snapshot index.
		"restored": func(_ *rand.Rand, i int) int { return 1<<40 + i },
		// Anything at all in a small box: below the first, repeated.
		"random": func(rng *rand.Rand, _ int) int { return 100 + rng.Intn(60) },
		// Instances descending: every one lands below the first.
		"descending": func(_ *rand.Rand, i int) int { return 5000 - i },
		// Holes nothing could span: every one a gap.
		"sparse": func(rng *rand.Rand, i int) int { return 7 + i*(1+rng.Intn(3)<<40) },
	}
	// The step at which a shape's late repeats begin; 0 for the rest.
	lateFrom := map[string]int{"in-order": 2000, "restored": steps}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) {
			for _, brk := range []string{"gap", "older", "record"} {
				t.Run(brk, func(t *testing.T) { testShape(t, shape, brk, dense, steps, lateFrom[name]) })
			}
		})
	}
}

// testShape is TestRecorderMatchesMapModel for one shape and one kind of
// first instance after the dense prefix.
func testShape(t *testing.T, shape func(rng *rand.Rand, i int) int, brk string, dense, steps, lateFrom int) {
	f := newModelRun(t)
	base := shape(f.rng, 0)
	for i := 0; i < dense; i++ {
		f.feed(base+i, i)
	}
	f.check(base, base+dense)
	switch brk {
	case "gap": // the instance after next
		f.feed(base+dense+1, dense)
	case "older":
		f.feed(base+f.rng.Intn(dense), dense)
	case "record":
		f.feed(base+dense, dense)
	}
	f.check(base, base+dense+2)
	for i := dense + 2; i < steps; i++ {
		f.feed(f.m.next, i)
		f.feed(shape(f.rng, i), -i)
		if i >= lateFrom && f.rng.Intn(4) == 0 {
			f.feed(f.seen[f.rng.Intn(len(f.seen))], -i) // a late repeat, with other values
		}
		if i%997 == 0 {
			f.check(f.lo, min(f.hi, f.lo+300))
		}
	}
	f.check(f.lo, min(f.hi, f.lo+700))
	f.check(base, base+dense+2)
	f.check(f.m.next-300, f.m.next)
}

// TestRecorderPanicsOnAGap: an instance past the next is refused with a
// panic that names it and the next, and leaves the log, its count and its
// hooks as they were; the next instance is recorded after it as before.
func TestRecorderPanicsOnAGap(t *testing.T) {
	r := newSplitRecorder()
	told := 0
	r.AddNotify(func(Decision) { told++ })
	r.RecordInstance(41, testPack("a", "b"), 1, 2, nil)
	got := recovered(func() { r.RecordInstance(43, "c", 2, 2, nil) })
	if want := "consensus: instance 43 recorded while 42 is next"; fmt.Sprint(got) != want {
		t.Fatalf("a gap panicked with %v, want %q", got, want)
	}
	if r.Count() != 2 || told != 2 || len(r.log) != 1 {
		t.Fatalf("after the gap: Count %d, %d told, %d rows; want 2, 2, 1", r.Count(), told, len(r.log))
	}
	if _, ok := r.Get(43); ok {
		t.Fatal("the refused instance reads back")
	}
	r.RecordInstance(42, "c", 3, 2, nil)
	if d, ok := r.Get(42); !ok || d.Value != "c" || r.Count() != 3 || told != 3 {
		t.Fatalf("the next instance after a gap: %+v,%v, Count %d, %d told", d, ok, r.Count(), told)
	}
}

// TestRecorderKeepsAnInstanceInOneRow: what the layout is for. A batched
// instance costs one row whatever it carries, at a follower and at the
// leader that proposed it alike: each decision's learn time, and the
// leader's Elapsed for the instances it led, reach the hooks and are not
// kept: a row is its value.
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
		if len(r.log) != n || cap(r.log) > 2*n || r.Count() != n*k {
			t.Fatalf("%d rows (cap %d), %d decisions; want %d, %d", len(r.log), cap(r.log), r.Count(), n, n*k)
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
	// event loop records: run under -race. Several writers record the same
	// instances in order, each recorded by the first to reach it and
	// ignored from the rest. Every snapshot must be a prefix of the final
	// log.
	r := newSplitRecorder()
	const writers, per = 4, 2048
	value := func(i int) Value { return testPack(Value(fmt.Sprint(i)), "x", "y", "z") }
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.RecordInstance(i, value(i), sim.Time(i), 1, nil)
			}
		}()
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
		for k, want := range testSplit(nil, value(i)) {
			if d, ok := r.GetCmd(i, k); !ok || d.Value != want {
				t.Fatalf("GetCmd(%d,%d) = %+v,%v", i, k, d, ok)
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
		r.RecordInstance(i, "v", 0, 0, nil)
	}
	seen := 0
	r.Each(func(d Decision) {
		seen++
		r.RecordInstance(d.Instance+3, "later", 0, 0, nil)
	})
	if seen != 3 || r.Count() != 6 {
		t.Fatalf("walked %d decisions and holds %d, want 3 and 6", seen, r.Count())
	}
}

// TestRecorderDenseFromAnyBase: a log recorded in order from wherever a
// replica starts applying — a snapshot's index, here — is dense from its
// first row: it answers for the instances it holds and for nothing else.
func TestRecorderDenseFromAnyBase(t *testing.T) {
	for _, base := range []int{0, 1, 977, 1 << 40} {
		r := newSplitRecorder()
		for i := 0; i < 100; i++ {
			r.RecordInstance(base+i, testPack("x", Value(fmt.Sprint(i))), sim.Time(i), 1, nil)
		}
		if r.Count() != 200 {
			t.Fatalf("base %d: %d decisions for 100 instances of 2", base, r.Count())
		}
		for _, inst := range []int{base - 1, base, base + 50, base + 99, base + 100} {
			d, ok := r.GetCmd(inst, 1)
			if want := inst >= base && inst < base+100; ok != want || ok && (d.Instance != inst || d.Value != Value(fmt.Sprint(inst-base))) {
				t.Fatalf("base %d: GetCmd(%d, 1) = %+v,%v", base, inst, d, ok)
			}
		}
	}
}

// TestRecorderValueIsTheDecidedValue: Value answers with an instance's
// value exactly as it was decided — a batch envelope whole, a raw command,
// and a lone command that begins with the batch marker still in its
// envelope — which is what rsm serves a replica that asks for a decision it
// has applied, and false for an instance never recorded. GetCmd reads the
// marked command out of its envelope.
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
	if d, ok := r.GetCmd(base+2, 0); !ok || d.Value != testMark+"x" {
		t.Fatalf("the marked command reads back %+v,%v", d, ok)
	}
}

func TestRecorderRecordAllocatesOnlyToGrow(t *testing.T) {
	// A follower's log, then a leader's. With room in the log — it grows by
	// amortised doubling — recording an instance allocates nothing: no
	// closure for the splitter, no slice for the commands, whatever the
	// batch holds, and nothing for the leader's Elapsed, which no hook is
	// here to take.
	v := testPack("a", "b", "c", "d")
	for _, enq := range [][]sim.Time{nil, {1, 2, 3, 4}} {
		r := newSplitRecorder()
		inst := 0
		record := func() {
			r.RecordInstance(inst, v, 9, 1, enq)
			inst++
		}
		record()
		r.log = slices.Grow(r.log, 512)
		if got := testing.AllocsPerRun(200, record); got != 0 {
			t.Fatalf("enq %v: recording allocates %.2f times an instance with room to spare, want 0", enq, got)
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
	// hooks', and the log keeps neither, which the end checks.
	b.ReportAllocs()
	r := newSplitRecorder()
	v, enq := testPack("a", "b", "c", "d"), []sim.Time{1, 2, 3, 4}
	for i := 0; i < b.N; i += 4 {
		r.RecordInstance(i/4, v, 9, 0, enq)
	}
	if benchDecision, _ = r.GetCmd((b.N-1)/4, (b.N-1)%4); benchDecision.Elapsed != 0 || benchDecision.At != 0 {
		b.Fatalf("last decision %+v: want a log that keeps no learn time and no Elapsed", benchDecision)
	}
}
