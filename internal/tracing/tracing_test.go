package tracing

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
)

// decode reads a dump document back for assertions.
func decode(t *testing.T, data []byte) Dump {
	t.Helper()
	var d Dump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("decode dump: %v", err)
	}
	return d
}

func snapshot(t *testing.T, s *Set) Dump {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return decode(t, buf.Bytes())
}

// spansNamed collects every span with the given name across processes.
func spansNamed(d Dump, name string) []SpanJSON {
	var out []SpanJSON
	for _, p := range d.Procs {
		for _, sp := range p.Spans {
			if sp.Name == name {
				out = append(out, sp)
			}
		}
	}
	return out
}

func TestSpanLifecycle(t *testing.T) {
	s := New(Config{Procs: 2})
	tr := s.Tracer(0)

	root := tr.StartTrace(10, "request")
	if !root.Valid() {
		t.Fatal("StartTrace with SampleEvery<=1 must sample every call")
	}
	q := tr.Record(10, 20, root, "queue", -1, "")
	if !q.Valid() || q.Trace != root.Trace {
		t.Fatalf("Record context = %+v, want trace %d", q, root.Trace)
	}
	quorum := tr.Start(20, root, "quorum")
	tr.Event(25, quorum, "accepted", 1)
	tr.Event(26, quorum, "accepted", 2)
	tr.End(30, quorum)
	s.Tracer(1).Record(22, 22, quorum, "accept", 0, "ACCEPT")

	d := snapshot(t, s)
	if len(d.Procs) != 2 {
		t.Fatalf("procs = %d, want 2", len(d.Procs))
	}
	req := spansNamed(d, "request")
	if len(req) != 1 || req[0].StartNS != 10 || req[0].EndNS != 10 || req[0].Parent != 0 {
		t.Fatalf("request span = %+v", req)
	}
	qs := spansNamed(d, "queue")
	if len(qs) != 1 || qs[0].Parent != uint64(root.Span) || qs[0].StartNS != 10 || qs[0].EndNS != 20 {
		t.Fatalf("queue span = %+v", qs)
	}
	qu := spansNamed(d, "quorum")
	if len(qu) != 1 || qu[0].EndNS != 30 || len(qu[0].Events) != 2 {
		t.Fatalf("quorum span = %+v", qu)
	}
	if qu[0].Events[0].Name != "accepted" || qu[0].Events[0].Peer != 1 || qu[0].Events[0].TNS != 25 {
		t.Fatalf("quorum events = %+v", qu[0].Events)
	}
	acc := spansNamed(d, "accept")
	if len(acc) != 1 || acc[0].Proc != 1 || acc[0].Parent != uint64(quorum.Span) || acc[0].Note != "ACCEPT" {
		t.Fatalf("accept span = %+v", acc)
	}
	// Span ids embed the process id, so cross-process ids cannot collide.
	if req[0].ID>>48 != 1 || acc[0].ID>>48 != 2 {
		t.Fatalf("span id proc tags: request %x accept %x", req[0].ID, acc[0].ID)
	}
}

func TestOpenSpansAppearFlagged(t *testing.T) {
	s := New(Config{Procs: 1})
	tr := s.Tracer(0)
	root := tr.StartTrace(1, "request")
	tr.Start(2, root, "quorum") // never ended
	d := snapshot(t, s)
	qu := spansNamed(d, "quorum")
	if len(qu) != 1 || !qu[0].Open {
		t.Fatalf("open span = %+v, want Open", qu)
	}
	// Ending an unknown context is a no-op, not a panic.
	tr.End(3, Context{Trace: root.Trace, Span: 0x7777})
}

func TestSampling(t *testing.T) {
	s := New(Config{Procs: 1, SampleEvery: 4})
	tr := s.Tracer(0)
	sampled := 0
	for i := 0; i < 40; i++ {
		if tr.StartTrace(sim.Time(i), "request").Valid() {
			sampled++
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 40 with SampleEvery=4, want 10", sampled)
	}
	// Everything under a sampled-out context is free and records nothing.
	before := len(snapshot(t, s).Procs[0].Spans)
	tr.Record(1, 2, Context{}, "queue", -1, "")
	tr.Event(1, Context{}, "accepted", 1)
	tr.End(2, Context{})
	if after := len(snapshot(t, s).Procs[0].Spans); after != before {
		t.Fatalf("zero-context records grew the ring: %d -> %d", before, after)
	}
}

func TestMarkIsAlwaysRecorded(t *testing.T) {
	// Marks bypass sampling: leader changes must land even when request
	// sampling is effectively off.
	s := New(Config{Procs: 1, SampleEvery: 1 << 30})
	s.Tracer(0).Mark(7, "leader-change", 2)
	d := snapshot(t, s)
	m := spansNamed(d, "leader-change")
	if len(m) != 1 || m[0].Peer != 2 || m[0].StartNS != 7 || m[0].Parent != 0 {
		t.Fatalf("mark = %+v", m)
	}
}

func TestRingWrapEvictsOldestAndCountsDropped(t *testing.T) {
	const limit = 8
	s := New(Config{Procs: 1, Limit: limit})
	tr := s.Tracer(0)
	for i := 0; i < limit+5; i++ {
		tr.Mark(sim.Time(i), "m", -1)
	}
	if got := tr.Dropped(); got != 5 {
		t.Fatalf("Dropped = %d, want 5", got)
	}
	d := snapshot(t, s)
	spans := d.Procs[0].Spans
	if len(spans) != limit {
		t.Fatalf("retained %d spans, want %d", len(spans), limit)
	}
	for i, sp := range spans {
		if want := int64(i + 5); sp.StartNS != want {
			t.Fatalf("span %d start = %d, want %d (oldest-first after wrap)", i, sp.StartNS, want)
		}
	}
	if d.Procs[0].Dropped != 5 {
		t.Fatalf("dump dropped = %d, want 5", d.Procs[0].Dropped)
	}
}

// TestRingWrapConcurrent exercises wrap-around under concurrent writers —
// node loop, transport goroutines, and harness hooks all record into one
// tracer on live transports. Run with -race; the assertion is that every
// write is either retained or counted dropped, never lost.
func TestRingWrapConcurrent(t *testing.T) {
	const (
		limit   = 64
		writers = 8
		each    = 500
	)
	s := New(Config{Procs: 1, Limit: limit})
	tr := s.Tracer(0)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				switch i % 3 {
				case 0:
					tr.Mark(sim.Time(i), "m", w)
				case 1:
					ctx := tr.StartTrace(sim.Time(i), "request")
					tr.Record(sim.Time(i), sim.Time(i+1), ctx, "queue", -1, "")
				case 2:
					ctx := tr.Start(sim.Time(i), Context{Trace: 1, Span: 1}, "quorum")
					tr.Event(sim.Time(i), ctx, "accepted", w)
					tr.End(sim.Time(i+1), ctx)
				}
			}
		}(w)
	}
	wg.Wait()
	d := snapshot(t, s)
	retained := len(d.Procs[0].Spans)
	if retained != limit {
		t.Fatalf("retained %d spans, want full ring of %d", retained, limit)
	}
	// 2 spans for case 0+1 rounds (mark, request+queue = 3 per triple), so
	// writers*each spans total across the mix: count completed pushes.
	perTriple := 4 // mark + (request root + queue) + quorum
	triples := writers * (each / 3)
	rem := each % 3 // writers see the same remainder pattern
	pushed := triples*perTriple + writers*map[int]int{0: 0, 1: 1, 2: 3}[rem]
	if got := int(tr.Dropped()); got != pushed-retained {
		t.Fatalf("Dropped = %d, want pushed(%d) - retained(%d) = %d", got, pushed, retained, pushed-retained)
	}
}

func TestOpenSpanBoundSheds(t *testing.T) {
	s := New(Config{Procs: 1, Limit: 16})
	tr := s.Tracer(0)
	parent := tr.StartTrace(0, "request")
	for i := 0; i < maxOpenSpans; i++ {
		if !tr.Start(1, parent, "quorum").Valid() {
			t.Fatalf("span %d shed below the bound", i)
		}
	}
	if tr.Start(1, parent, "quorum").Valid() {
		t.Fatal("span past maxOpenSpans must be shed")
	}
	if tr.Dropped() == 0 {
		t.Fatal("shed open span must count as dropped")
	}
}

func TestNilSetIsNoOp(t *testing.T) {
	tr := Nop.Tracer(0)
	if tr != nil {
		t.Fatal("nil set must hand out nil tracers")
	}
	if ctx := tr.StartTrace(1, "request"); ctx.Valid() {
		t.Fatal("nil tracer sampled")
	}
	tr.Record(1, 2, Context{Trace: 1, Span: 1}, "queue", -1, "")
	tr.Event(1, Context{Trace: 1, Span: 1}, "accepted", 0)
	tr.End(2, Context{Trace: 1, Span: 1})
	tr.Mark(1, "leader-change", 0)
	tr.Trigger(1, "crash")
	Nop.Trigger(0, 0, "crash")
	Nop.SetWallStart(time.Now())
	if Nop.Stamp() != 0 || Nop.Triggered() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil set accessors must return zero values")
	}
	if Nop.Sink() != nil || Nop.MessageSink() != nil {
		t.Fatal("nil set must expose nil sinks")
	}
	var buf bytes.Buffer
	if err := Nop.WriteJSON(&buf); err != nil || buf.String() != "{}\n" {
		t.Fatalf("nil WriteJSON = %q, %v", buf.String(), err)
	}
	if path, err := Nop.Final(); path != "" || err != nil {
		t.Fatalf("nil Final = %q, %v", path, err)
	}
}

func TestZeroAllocDisabledAndSampledOut(t *testing.T) {
	// Disabled: the nil-tracer path the consensus hot loops take.
	nilTr := Nop.Tracer(3)
	if allocs := testing.AllocsPerRun(1000, func() {
		ctx := nilTr.StartTrace(1, "request")
		nilTr.Record(1, 2, ctx, "queue", -1, "")
		nilTr.Event(2, ctx, "accepted", 1)
		nilTr.End(3, ctx)
		nilTr.Mark(3, "leader-change", -1)
	}); allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f/op, want 0", allocs)
	}
	// Enabled but sampled out: ingress pays one atomic, everything under
	// the zero context is free.
	s := New(Config{Procs: 1, SampleEvery: 1 << 40})
	tr := s.Tracer(0)
	tr.StartTrace(0, "request") // burn the first (sampled) decision
	if allocs := testing.AllocsPerRun(1000, func() {
		ctx := tr.StartTrace(1, "request")
		tr.Record(1, 2, ctx, "queue", -1, "")
		tr.Event(2, ctx, "accepted", 1)
		tr.End(3, ctx)
	}); allocs != 0 {
		t.Fatalf("sampled-out tracing allocates %.1f/op, want 0", allocs)
	}
}

func TestFlightRecorderDumps(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "dumps")
	s := New(Config{Procs: 2, Dir: dir})
	s.Tracer(0).Mark(5, "leader-change", 1)

	for i := 0; i < maxDumps+1; i++ {
		s.Trigger(sim.Time(10+i), 0, "leader-change") // the last is capped
	}
	s.Trigger(15, 1, "crash") // separate reason, separate cap
	if got := s.Triggered(); got != maxDumps+1 {
		t.Fatalf("Triggered = %d, want %d (fifth leader-change capped)", got, maxDumps+1)
	}
	path, err := s.Final()
	if err != nil {
		t.Fatalf("Final: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("dump dir: %v", err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{
		"trace-001-leader-change.json",
		"trace-002-leader-change.json",
		"trace-003-leader-change.json",
		"trace-004-leader-change.json",
		"trace-005-crash.json",
		"trace-006-final.json",
	}
	if len(names) != len(want) {
		t.Fatalf("dumps = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("dumps = %v, want %v", names, want)
		}
	}
	if filepath.Base(path) != "trace-006-final.json" {
		t.Fatalf("Final path = %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d := decode(t, data)
	if d.Reason != "final" || d.Proc != -1 || len(d.Procs) != 2 {
		t.Fatalf("final dump header = %+v", d)
	}
	if _, err := time.Parse(time.RFC3339Nano, d.WallStart); err != nil {
		t.Fatalf("wall_start %q: %v", d.WallStart, err)
	}
	if m := spansNamed(d, "leader-change"); len(m) != 1 {
		t.Fatalf("final dump lost the mark: %+v", d.Procs)
	}
	first, err := os.ReadFile(filepath.Join(dir, "trace-001-leader-change.json"))
	if err != nil {
		t.Fatal(err)
	}
	if fd := decode(t, first); fd.AtNS != 10 || fd.Proc != 0 || fd.Reason != "leader-change" {
		t.Fatalf("first dump header = %+v", fd)
	}
}

// TestSinkKeepsEventsAsMarks: the subscriber half of the obs stream. The
// events traceview replays become marks named after the event, the
// anomalies among them fire the recorder, and the rest leave no trace.
func TestSinkKeepsEventsAsMarks(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Procs: 2, Dir: dir})
	s.SetWallStart(time.Now().Add(-time.Second))
	ev := obs.Tee(obs.Nop{}, s.Sink()) // as a cluster sees it: teed

	ev.OnEvent(obs.Event{T: 42, What: obs.LeaderChange, Proc: 1, Peer: 0})
	ev.OnEvent(obs.Event{T: 50, What: obs.Down, Proc: 0, Peer: -1})
	ev.OnEvent(obs.Event{T: 60, What: obs.Up, Proc: 0, Peer: -1})
	ev.OnEvent(obs.Event{T: 61, What: obs.Note, Proc: 0, Peer: -1, Text: "ballot 7 prepared"})
	ev.OnEvent(obs.Event{T: 70, What: obs.WALFsync, Proc: 1, Peer: -1, Dur: SlowFsync / 2}) // healthy: no mark
	ev.OnEvent(obs.Event{T: 71, What: obs.WALFsync, Proc: 1, Peer: -1, Dur: SlowFsync})
	ev.OnEvent(obs.Event{T: 72, What: obs.Decide, Proc: 1, Peer: -1, Dur: time.Millisecond})
	ev.OnEvent(obs.Event{T: 73, What: obs.Flush, Proc: 1, Peer: 0, N: 3, Bytes: 200})
	ev.OnEvent(obs.Event{T: 74, What: obs.Down, Proc: 9, Peer: -1}) // out of range: dropped, not a panic

	d := snapshot(t, s)
	lc := spansNamed(d, "leader-change")
	if len(lc) != 1 || lc[0].Proc != 1 || lc[0].Peer != 0 || lc[0].StartNS != 42 {
		t.Fatalf("leader-change = %+v", lc)
	}
	if dn, up := spansNamed(d, "down"), spansNamed(d, "up"); len(dn) != 1 || dn[0].StartNS != 50 || len(up) != 1 {
		t.Fatalf("down/up marks: %+v", d.Procs)
	}
	if nt := spansNamed(d, "note"); len(nt) != 1 || nt[0].Note != "ballot 7 prepared" {
		t.Fatalf("note = %+v", nt)
	}
	fs := spansNamed(d, "fsync-slow")
	if len(fs) != 1 || fs[0].Proc != 1 || fs[0].StartNS != 71 {
		t.Fatalf("fsync-slow = %+v", fs)
	}
	total := 0
	for _, p := range d.Procs {
		total += len(p.Spans)
	}
	if total != 5 {
		t.Fatalf("%d spans recorded, want the 5 marks only (decide and flush are not the ring's)", total)
	}
	// leader-change + crash + fsync-slow triggers all dumped.
	if got := s.Triggered(); got != 3 {
		t.Fatalf("Triggered = %d, want 3", got)
	}
	// Stamp is wall time since the anchor: about a second here.
	if st := s.Stamp(); st < sim.Time(500*time.Millisecond) || st > sim.Time(5*time.Second) {
		t.Fatalf("Stamp = %v, want ~1s", st)
	}
}

// TestMaxDumpsExactUnderContention: the cap is checked without a lock
// (the sink triggers per dropped frame from every link sender), and it
// must still let exactly maxDumps through per reason. Run with -race.
func TestMaxDumpsExactUnderContention(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Procs: 4, Dir: dir})
	reasons := []string{"message-drop", "leader-change", "crash"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Tracer(g%4).Trigger(sim.Time(i), reasons[(g+i)%len(reasons)])
			}
		}(g)
	}
	wg.Wait()
	if got := s.Triggered(); got != 3*maxDumps {
		t.Fatalf("Triggered = %d, want 3 reasons x maxDumps %d", got, maxDumps)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 3*maxDumps {
		t.Fatalf("%d dump files (err %v), want %d with distinct sequence numbers", len(entries), err, 3*maxDumps)
	}
	per := map[string]int{}
	for _, e := range entries {
		for _, r := range reasons {
			if strings.HasSuffix(e.Name(), "-"+r+".json") {
				per[r]++
			}
		}
	}
	for _, r := range reasons {
		if per[r] != maxDumps {
			t.Fatalf("dumps per reason = %v, want %d each", per, maxDumps)
		}
	}
}

// TestMessageSinkIsTheEventLog: a MessageSink ring holds what
// omegasim -trace and chaossoak -trace-tail print — every message event as
// a mark at the process it happened at, the crash among them, merged in
// time order — and WriteText prints its tail, with wall times on request.
func TestMessageSinkIsTheEventLog(t *testing.T) {
	s := New(Config{Procs: 3, Limit: 4})
	s.SetWallStart(time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC))
	sink := s.MessageSink()
	leader, accuse := obs.Intern("LEADER"), obs.Intern("ACCUSE")
	at := func(ms int) sim.Time { return sim.At(time.Duration(ms) * time.Millisecond) }

	sink.OnSend(at(1), 0, 1, leader)
	sink.OnSend(at(1), 0, 2, leader)
	sink.OnDeliver(at(2), 0, 1, leader)
	sink.OnDrop(at(2), 0, 2, leader)
	sink.OnEvent(obs.Event{T: at(3), What: obs.Down, Proc: 0, Peer: -1})
	sink.OnEvent(obs.Event{T: at(4), What: obs.Note, Proc: 2, Peer: -1, Text: "leader is now p1"})
	sink.OnSend(at(1500), 2, 1, accuse)

	marks := s.Marks()
	var got []string
	for i, m := range marks {
		got = append(got, fmt.Sprintf("%s p%d→%d %s", m.Name, m.Proc, m.Peer, m.Note))
		if i > 0 && m.StartNS < marks[i-1].StartNS {
			t.Fatalf("marks out of time order at %d: %v", i, got)
		}
	}
	want := []string{
		"SEND p0→1 LEADER", "SEND p0→2 LEADER", // same instant, same process: recording order
		"DROP p0→2 LEADER", "DELIVER p1→0 LEADER", // same instant: by process
		"down p0→-1 ", "note p2→-1 leader is now p1", "SEND p2→1 ACCUSE",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("marks =\n %q\nwant\n %q", got, want)
	}
	marks[0].Proc = 99 // a copy: the ring is not aliased
	if s.Marks()[0].Proc == 99 {
		t.Fatal("Marks returned aliased storage")
	}

	var b strings.Builder
	if err := s.WriteText(&b, 0, false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("WriteText wrote %d lines, want %d:\n%s", len(lines), len(want), b.String())
	}
	for _, frag := range []string{"SEND", "p0→p2", "LEADER", "1ms"} {
		if !strings.Contains(lines[1], frag) {
			t.Fatalf("line %q missing %q", lines[1], frag)
		}
	}
	if strings.Contains(lines[4], "→") || !strings.Contains(lines[4], "down") {
		t.Fatalf("peerless mark rendered as %q", lines[4])
	}
	if !strings.HasSuffix(lines[5], "leader is now p1") {
		t.Fatalf("note line = %q", lines[5])
	}

	b.Reset()
	if err := s.WriteText(&b, 2, true); err != nil {
		t.Fatal(err)
	}
	tail := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(tail) != 2 || !strings.Contains(tail[0], "note") ||
		!strings.HasPrefix(tail[1], "12:00:01.500000 ") || !strings.Contains(tail[1], "ACCUSE") {
		t.Fatalf("wall-anchored tail = %q", tail)
	}

	// The ring bound is per process: p0 keeps its newest Limit marks and
	// counts the rest, and the log stays in time order across the wrap.
	for i := 0; i < 6; i++ {
		sink.OnSend(at(2000+i), 0, 1, leader)
	}
	if d := s.Tracer(0).Dropped(); d != 6 {
		t.Fatalf("p0 evicted %d marks, want 6 (its ring of 4 was full)", d)
	}
	marks = s.Marks()
	if len(marks) != 4+1+2 || marks[len(marks)-1].StartNS != int64(at(2005)) {
		t.Fatalf("after wrap: %d marks, last at %v", len(marks), sim.Time(marks[len(marks)-1].StartNS))
	}
}

func TestSinkRecordsSendsAndDumpsDrops(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Procs: 3, Dir: dir})
	sink := s.Sink()
	kind := obs.Intern("ACCEPT")

	root := s.Tracer(0).StartTrace(1, "request")
	sink.OnSendCtx(2, 0, 2, kind, uint64(root.Trace), uint64(root.Span))
	sink.OnSendCtx(2, 0, 1, kind, 0, 0) // untraced message: no span
	sink.OnSend(2, 0, 2, kind)          // plain sends are not recorded
	sink.OnDeliver(3, 0, 2, kind)       // deliveries are not recorded
	d := snapshot(t, s)
	sends := spansNamed(d, "send")
	if len(sends) != 1 {
		t.Fatalf("send spans = %+v, want exactly one", sends)
	}
	if sends[0].Proc != 0 || sends[0].Peer != 2 || sends[0].Parent != uint64(root.Span) || sends[0].Note != "ACCEPT" {
		t.Fatalf("send span = %+v", sends[0])
	}

	sink.OnDrop(4, 1, 2, kind)
	if s.Triggered() != 1 {
		t.Fatal("drop must fire the flight recorder")
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 || entries[0].Name() != "trace-001-message-drop.json" {
		t.Fatalf("dump dir = %v", entries)
	}
}

func TestWrapExposesTraceContext(t *testing.T) {
	w := Wrap{Ctx: Context{Trace: 7, Span: 9}}
	var traced node.Traced = w
	tr, sp := traced.TraceContext()
	if tr != 7 || sp != 9 {
		t.Fatalf("TraceContext = %d, %d", tr, sp)
	}
	if obs.KindName(w.KindID()) != KindTrace {
		t.Fatalf("kind = %s", obs.KindName(w.KindID()))
	}
}
