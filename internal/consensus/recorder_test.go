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

// checkAgainst compares every observable of r with the model, probing
// all slots in a box around what was recorded so misses are checked too.
func checkAgainst(t *testing.T, r *Recorder, m *refRecorder, lo, hi, cmds int) {
	t.Helper()
	if r.Count() != len(m.order) {
		t.Fatalf("Count = %d, model %d", r.Count(), len(m.order))
	}
	all := r.All()
	var each []Decision
	r.Each(func(d Decision) { each = append(each, d) })
	if !slices.Equal(all, m.order) || !slices.Equal(each, m.order) {
		for i, d := range m.order {
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
			if ok != wok || got != want {
				t.Fatalf("GetCmd(%d,%d) = %+v,%v, model %+v,%v", inst, cmd, got, ok, want, wok)
			}
		}
		got, ok := r.Get(inst)
		want, wok := m.decisions[decisionKey{inst, 0}]
		if ok != wok || got != want {
			t.Fatalf("Get(%d) = %+v,%v, model %+v,%v", inst, got, ok, want, wok)
		}
	}
}

// TestRecorderMatchesMapModel: whatever mix of Record and RecordInstance
// arrives, in whatever order, every query answers as one Decision per
// command slot in arrival order would, Elapsed included, and the hooks see
// each first-time decision once, in that order. A log that arrives in
// (instance, command) order — the applier shape — is searched in place and
// holds no index; the in-order shape has its first late duplicate only once
// its log is large, so its index is built from many rows at once.
func TestRecorderMatchesMapModel(t *testing.T) {
	const cmds = 5
	// Each shape is a stream of instance numbers.
	shapes := map[string]func(rng *rand.Rand, i int) int{
		// What rsm's applier does: instances in order, each once.
		"applier": func(_ *rand.Rand, i int) int { return i },
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
	lateFrom := map[string]int{"applier": 1 << 30, "in-order": 2000}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20040725))
			r, m := newSplitRecorder(), newRef()
			var told []Decision
			r.AddNotify(func(d Decision) { told = append(told, d) })
			lo, hi := 1<<62, -1<<62
			var seen []int
			feed := func(inst, i int) {
				at, by := sim.Time(1000+i), node.ID(3)
				val := func(k int) Value { return Value(fmt.Sprint("v", i, ".", k)) }
				switch op := rng.Intn(10); {
				case op < 3: // one command slot, k > 0 included, as single-decree protocols and old callers record
					d := Decision{Instance: inst, Cmd: rng.Intn(cmds), Value: val(0), At: at, By: by}
					if rng.Intn(2) == 0 {
						d.Elapsed = time.Duration(1+rng.Intn(50)) * time.Microsecond
					}
					r.Record(d)
					m.record(d)
					return
				case op < 8: // an instance of 0..cmds commands in an envelope
					vs := make([]Value, rng.Intn(cmds+1))
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
			for i := 0; i < 3000; i++ {
				if i == lateFrom[name] && cap(r.sorted) != 0 {
					t.Fatalf("an index of capacity %d before the first of %d rows arrived out of order", cap(r.sorted), len(r.log))
				}
				inst := shape(rng, i)
				feed(inst, i)
				seen = append(seen, inst)
				lo, hi = min(lo, inst), max(hi, inst)
				if i >= lateFrom[name] && rng.Intn(4) == 0 {
					feed(seen[rng.Intn(len(seen))], -i) // a late duplicate, with other values
				}
				if i%997 == 0 || i == lateFrom[name]+100 {
					checkAgainst(t, r, m, lo, min(hi, lo+300), cmds)
				}
			}
			checkAgainst(t, r, m, lo, min(hi, lo+700), cmds)
			if !slices.Equal(told, m.order) {
				t.Fatalf("the hook saw %d decisions, not the model's %d in its order", len(told), len(m.order))
			}
			if name == "applier" {
				if cap(r.sorted) != 0 {
					t.Fatalf("an index of capacity %d for %d rows recorded in order", cap(r.sorted), len(r.log))
				}
			} else if len(r.sorted) != len(r.log) || cap(r.sorted) > 2*len(r.log)+64 {
				t.Fatalf("index of %d (cap %d) for %d rows: sized by something else than the rows", len(r.sorted), cap(r.sorted), len(r.log))
			}
		})
	}
}

// TestRecorderKeepsAnInstanceInOneRow: what the layout is for. A batched
// instance costs one row whatever it carries, a follower keeps no Elapsed
// and no place for them, and a leader's are kept only for the instances it
// led, behind a place for every row from the first one it led.
func TestRecorderKeepsAnInstanceInOneRow(t *testing.T) {
	if got := unsafe.Sizeof(row{}); got > 40 {
		t.Fatalf("a row is %d bytes, want at most 40", got)
	}
	leader, follower := newSplitRecorder(), newSplitRecorder()
	const n, k = 300, 4
	led := func(i int) bool { return i < 100 || i >= 200 } // the middle third was led by someone else
	for i := 0; i < n; i++ {
		v, at := testPack("a", "b", "c", "d"), sim.Time(10*i+9)
		follower.RecordInstance(i, v, at, 1, nil)
		var enq []sim.Time
		if led(i) {
			enq = []sim.Time{at - 1, at - 2, at - 3, at - 4}
		}
		leader.RecordInstance(i, v, at, 0, enq)
	}
	if len(follower.log) != n || follower.Count() != n*k || cap(follower.elapsed) != 0 || cap(follower.el) != 0 || cap(follower.sorted) != 0 {
		t.Fatalf("follower: %d rows, %d decisions, %d Elapsed, %d places, %d index; want %d, %d, 0, 0, 0",
			len(follower.log), follower.Count(), cap(follower.elapsed), cap(follower.el), cap(follower.sorted), n, n*k)
	}
	if len(leader.log) != n || len(leader.elapsed) != 200*k || len(leader.el) != n || cap(leader.sorted) != 0 {
		t.Fatalf("leader: %d rows, %d Elapsed, %d places, %d index; want %d, %d, %d, 0", len(leader.log), len(leader.elapsed), len(leader.el), cap(leader.sorted), n, 200*k, n)
	}
	for p, d := range leader.All() {
		want := time.Duration(0)
		if led(p / k) {
			want = time.Duration(1 + p%k)
		}
		if got, _ := leader.GetCmd(p/k, p%k); d.Elapsed != want || got != d || d.Instance != p/k || d.Cmd != p%k {
			t.Fatalf("decision %d: All %+v, GetCmd %+v, want Elapsed %v", p, d, got, want)
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
			want := Decision{Instance: seen / 3, Cmd: seen % 3, Value: "x", At: sim.Time(seen / 3), By: 2, Elapsed: time.Duration(seen / 3)}
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

func TestRecorderRecordAllocatesOnlyToGrow(t *testing.T) {
	// A follower's log, then a leader's. With room in the log and the Elapsed
	// and their places — they grow by amortised doubling — recording an
	// instance allocates nothing: no closure for the splitter, no slice for
	// the commands, whatever the batch holds. Both arrive in order, so
	// neither builds an index.
	v := testPack("a", "b", "c", "d")
	for _, enq := range [][]sim.Time{nil, {1, 2, 3, 4}} {
		r := newSplitRecorder()
		inst := 0
		record := func() {
			r.RecordInstance(inst, v, 9, 1, enq)
			r.Record(Decision{Instance: inst, Cmd: 7, Value: "v", By: 1}) // and the one-command row
			inst++
		}
		record()
		r.log, r.el, r.elapsed = slices.Grow(r.log, 512), slices.Grow(r.el, 512), slices.Grow(r.elapsed, 2048)
		if got := testing.AllocsPerRun(200, record); got != 0 || cap(r.sorted) != 0 {
			t.Fatalf("enq %v: recording allocates %.2f times an instance with room to spare, want 0; index of %d", enq, got, cap(r.sorted))
		}
	}
}

var benchDecision Decision

func BenchmarkRecorderRecord(b *testing.B) {
	// The rsm applier's pattern at a follower: instances in order, 4
	// commands each, one op a command. B/op is what a decision costs to
	// keep: its quarter of a 40-byte row, growth slack included.
	b.ReportAllocs()
	r := newSplitRecorder()
	v := testPack("a", "b", "c", "d")
	for i := 0; i < b.N; i += 4 {
		r.RecordInstance(i/4, v, 9, 1, nil)
	}
	benchDecision, _ = r.GetCmd((b.N-1)/4, (b.N-1)%4)
}
