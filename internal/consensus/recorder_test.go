package consensus

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// decisionKey identifies one command slot: batching means an instance can
// decide several commands, each recorded once.
type decisionKey struct {
	inst, cmd int
}

// refRecorder is the map-and-slice Recorder this package had before the
// chunked log: the model the differential test holds the new one to.
type refRecorder struct {
	decisions map[decisionKey]Decision
	order     []Decision
}

func (m *refRecorder) record(d Decision) bool {
	key := decisionKey{d.Instance, d.Cmd}
	if _, ok := m.decisions[key]; ok {
		return false
	}
	m.decisions[key] = d
	m.order = append(m.order, d)
	return true
}

// checkAgainst compares every observable of r with the model, probing
// all slots in a box around what was recorded so misses are checked too.
func checkAgainst(t *testing.T, r *Recorder, m *refRecorder, lo, hi, cmds int) {
	t.Helper()
	if r.Count() != len(m.order) {
		t.Fatalf("Count = %d, model %d", r.Count(), len(m.order))
	}
	all := r.All()
	for i, d := range m.order {
		if all[i] != d {
			t.Fatalf("All[%d] = %+v, model %+v", i, all[i], d)
		}
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

func TestRecorderMatchesMapModel(t *testing.T) {
	// Each shape is a stream of (instance, cmd) slots; every one is fed
	// with duplicates mixed in, to both recorders, values distinct per
	// attempt so that first-record-wins is visible.
	const cmds = 5
	shapes := map[string]func(rng *rand.Rand, i int) (inst, cmd int){
		// What rsm does: instances in order, commands in order.
		"in-order": func(_ *rand.Rand, i int) (int, int) { return i / cmds, i % cmds },
		// The same after a restore at a large snapshot index.
		"restored": func(_ *rand.Rand, i int) (int, int) { return 1<<40 + i/cmds, i % cmds },
		// Anything at all in a small box: out of order, sparse, repeated.
		"random": func(rng *rand.Rand, _ int) (int, int) { return 100 + rng.Intn(40), rng.Intn(cmds) },
		// Instances descending: every one lands below the first.
		"descending": func(_ *rand.Rand, i int) (int, int) { return 500 - i/cmds, i % cmds },
		// Commands in reverse inside each instance.
		"cmds-reversed": func(_ *rand.Rand, i int) (int, int) { return i / cmds, cmds - 1 - i%cmds },
		// Holes, some wider than the index will span.
		"sparse": func(rng *rand.Rand, i int) (int, int) {
			return 7 + (i/cmds)*(1+rng.Intn(3)*recMaxHole), i % cmds
		},
	}
	for name, shape := range shapes {
		name, shape := name, shape
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20040725))
			r := NewRecorder()
			m := &refRecorder{decisions: make(map[decisionKey]Decision)}
			notified := 0
			r.AddNotify(func(Decision) { notified++ })
			lo, hi := 1<<62, -1<<62
			var seen []decisionKey
			feed := func(inst, cmd, i int) {
				d := Decision{Instance: inst, Cmd: cmd, Value: Value(fmt.Sprint("v", i)), By: 3}
				r.Record(d)
				m.record(d)
			}
			for i := 0; i < 3*recChunk; i++ { // crosses chunk boundaries
				inst, cmd := shape(rng, i)
				feed(inst, cmd, i)
				seen = append(seen, decisionKey{inst, cmd})
				lo, hi = min(lo, inst), max(hi, inst)
				if rng.Intn(4) == 0 {
					k := seen[rng.Intn(len(seen))] // a late duplicate, with another value
					feed(k.inst, k.cmd, -i)
				}
				if i%997 == 0 {
					checkAgainst(t, r, m, lo, min(hi, lo+300), cmds)
				}
			}
			checkAgainst(t, r, m, lo, min(hi, lo+700), cmds)
			if notified != len(m.order) {
				t.Fatalf("notify ran %d times for %d first-time records", notified, len(m.order))
			}
			if name == "in-order" || name == "restored" {
				if len(r.strays) != 0 {
					t.Fatalf("%d strays on the replicated-log pattern: lookups would scan", len(r.strays))
				}
			}
		})
	}
}

func TestRecorderConcurrentRecordAndAll(t *testing.T) {
	// Live transports read the recorder from other goroutines while the
	// event loop records: run under -race. Every snapshot must be a
	// prefix of the final log.
	r := NewRecorder()
	const writers, per = 4, 2 * recChunk
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
	snaps := make(chan []Decision, 64)
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

// TestRecorderKeepsWholeWhatDoesNotPack: a row holds an instance within an
// int32 of the first one recorded, a command index an int32 holds, and the
// recorder's one By. Anything else is kept as the Decision it came as, and
// every query answers as the model does.
func TestRecorderKeepsWholeWhatDoesNotPack(t *testing.T) {
	if got := unsafe.Sizeof(row{}); got > 32 {
		t.Fatalf("a row is %d bytes, want at most 32", got)
	}
	const base = 1000
	r := NewRecorder()
	m := &refRecorder{decisions: make(map[decisionKey]Decision)}
	for _, c := range []struct {
		d     Decision
		whole int // decisions kept whole once d is recorded
	}{
		{Decision{Instance: base, Value: "first", By: 3, At: 5}, 0},
		{Decision{Instance: base, Cmd: 1, Value: "another learner", By: 4, Elapsed: time.Second}, 1},
		{Decision{Instance: base + 1, Value: "packs", By: 3, At: 7, Elapsed: time.Millisecond}, 1},
		{Decision{Instance: base + math.MaxInt32 + 1, Value: "an int32 too far", By: 3}, 2},
		{Decision{Instance: base + math.MinInt32, Value: "the lowest that packs", By: 3}, 2},
		{Decision{Instance: base + math.MinInt32 - 1, Value: "an int32 too low", By: 3}, 3},
		{Decision{Instance: math.MinInt64 + 7, Cmd: 2, Value: "far below", By: 3, Elapsed: time.Minute}, 4},
		{Decision{Instance: base + 1, Cmd: math.MaxInt32 + 1, Value: "wide command index", By: 3}, 5},
		{Decision{Instance: base + 1, Cmd: -1, Value: "negative command index", By: 3}, 6},
		{Decision{Instance: base + math.MaxInt32 + 1, Value: "a duplicate of a whole one", By: 3}, 6},
	} {
		r.Record(c.d)
		m.record(c.d)
		if len(r.whole) != c.whole {
			t.Fatalf("after %q: %d decisions kept whole, want %d", c.d.Value, len(r.whole), c.whole)
		}
	}
	checkAgainst(t, r, m, base, base+2, 3)
	for _, d := range m.order {
		if got, ok := r.GetCmd(d.Instance, d.Cmd); !ok || got != d {
			t.Fatalf("GetCmd(%d,%d) = %+v,%v, want %+v", d.Instance, d.Cmd, got, ok, d)
		}
	}
}

// TestRecorderElapsedOnlyWhereOneLands: the proposing leader's decisions
// carry an Elapsed and get it back from every query; a follower's carry
// none, and it never pays for the column.
func TestRecorderElapsedOnlyWhereOneLands(t *testing.T) {
	leader, follower := NewRecorder(), NewRecorder()
	const n = 2*recChunk + 10
	for i := 0; i < n; i++ {
		d := Decision{Instance: i / 4, Cmd: i % 4, Value: "v", At: 9, By: 1}
		follower.Record(d)
		if i < recChunk || i >= 2*recChunk { // the middle chunk was led by someone else
			d.Elapsed = time.Duration(i+1) * time.Microsecond
		}
		leader.Record(d)
	}
	if slices.ContainsFunc(follower.elapsed, func(e *[recChunk]time.Duration) bool { return e != nil }) {
		t.Fatal("a follower allocated an Elapsed chunk")
	}
	if len(leader.elapsed) != 3 || leader.elapsed[0] == nil || leader.elapsed[1] != nil || leader.elapsed[2] == nil {
		t.Fatalf("leader's Elapsed chunks %v, want one beside the first and third log chunks only", leader.elapsed)
	}
	all := leader.All()
	var each []Decision
	leader.Each(func(d Decision) { each = append(each, d) })
	if !slices.Equal(all, each) {
		t.Fatal("Each and All disagree")
	}
	for i, d := range all {
		want := time.Duration(0)
		if i < recChunk || i >= 2*recChunk {
			want = time.Duration(i+1) * time.Microsecond
		}
		if got, _ := leader.GetCmd(i/4, i%4); d.Elapsed != want || got != d {
			t.Fatalf("decision %d: All %+v, GetCmd %+v, want Elapsed %v", i, d, got, want)
		}
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

func TestRecorderRecordAllocatesOnlyAtChunkBoundaries(t *testing.T) {
	// A follower's log, then a leader's: its Elapsed column comes a chunk at
	// a time too, with the log chunk it runs beside.
	for _, elapsed := range []time.Duration{0, time.Millisecond} {
		r := NewRecorder()
		inst := 0
		record := func() {
			for cmd := 0; cmd < 4; cmd++ {
				r.Record(Decision{Instance: inst, Cmd: cmd, Value: "v", By: 1, Elapsed: elapsed})
			}
			inst++
		}
		for r.Count() < recChunk+8 { // past the first chunk, which grows by doubling
			record()
		}
		// The index grows by amortised doubling, 4 bytes an instance; size it
		// up front so that the runs measure the log alone.
		r.start = append(make([]int32, 0, 4*recChunk), r.start...)
		// 100 runs of 4 decisions stay inside the second chunk.
		if got := testing.AllocsPerRun(100, record); got != 0 {
			t.Fatalf("Elapsed %v: Record allocates %.2f times per 4 decisions inside a chunk, want 0", elapsed, got)
		}
		if r.Count() >= 2*recChunk {
			t.Fatal("the measured runs crossed a chunk boundary")
		}
	}
}

var benchDecision Decision

func BenchmarkRecorderRecord(b *testing.B) {
	// The rsm applier's pattern at a follower: instances in order, 4
	// commands each. B/op is what a decision costs to keep: a 32-byte row
	// and its instance's share of the 4-byte index, doubling slack included.
	b.ReportAllocs()
	r := NewRecorder()
	for i := 0; i < b.N; i++ {
		r.Record(Decision{Instance: i / 4, Cmd: i % 4, Value: "v", By: 1})
	}
	benchDecision, _ = r.GetCmd((b.N-1)/4, (b.N-1)%4)
}
