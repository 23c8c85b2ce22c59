package traceview

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tracing"
)

// record builds a full request chain on a live tracing.Set the way the
// consensus stack does: client root, queue, quorum with per-link sends,
// follower accepts, decide, apply.
func recordRequest(s *tracing.Set, at sim.Time) tracing.Context {
	leader, follower := s.Tracer(0), s.Tracer(1)
	root := follower.StartTrace(at, "request")
	leader.Record(at+10, at+30, root, "queue", -1, "")
	q := leader.Start(at+30, root, "quorum")
	leader.Record(at+31, at+31, q, "send", 1, "ACCEPT")
	leader.Record(at+31, at+31, q, "send", 2, "ACCEPT")
	follower.Record(at+45, at+45, q, "accept", 0, "")
	leader.Event(at+60, q, "accepted", 1)
	leader.End(at+60, q)
	leader.Record(at+60, at+70, root, "apply", -1, "")
	return root
}

func TestLoadMergeAndRequestStages(t *testing.T) {
	dir := t.TempDir()
	s := tracing.New(tracing.Config{Procs: 3, Dir: dir})
	root := recordRequest(s, 1000)
	s.Trigger(2000, 0, "leader-change") // mid-run dump: same spans twice on disk
	if _, err := s.Final(); err != nil {
		t.Fatal(err)
	}

	m, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Files) != 2 || m.Procs != 3 {
		t.Fatalf("files=%d procs=%d", len(m.Files), m.Procs)
	}
	// Dedupe: the chain appears once despite two dumps retaining it.
	traces := BuildTraces(m)
	if len(traces) != 1 || traces[0].ID != uint64(root.Trace) {
		t.Fatalf("traces = %+v", traces)
	}
	if got, want := len(traces[0].Spans), 7; got != want {
		t.Fatalf("spans = %d, want %d (deduped chain)", got, want)
	}
	reqs := Requests(traces)
	if len(reqs) != 1 || !reqs[0].Complete {
		t.Fatalf("requests = %+v", reqs)
	}
	st := reqs[0].Stages
	if st.Queue != 20 || st.Quorum != 30 || st.Apply != 10 {
		t.Fatalf("stages = %+v", st)
	}
	// Wire: leader's send to p1 at +31, follower's accept at +45.
	if st.Wire != 14 {
		t.Fatalf("wire = %v, want 14ns", st.Wire)
	}
	// Total: client ingress (+0 at root start 1000) to apply end 1070.
	if st.Total != 70 {
		t.Fatalf("total = %v, want 70ns", st.Total)
	}
}

func TestIncompleteRequestFlagged(t *testing.T) {
	dir := t.TempDir()
	s := tracing.New(tracing.Config{Procs: 2, Dir: dir})
	tr := s.Tracer(0)
	root := tr.StartTrace(1, "request")
	tr.Record(2, 3, root, "queue", -1, "")
	tr.Start(3, root, "quorum") // never decided: stays open
	if _, err := s.Final(); err != nil {
		t.Fatal(err)
	}
	m, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	reqs := Requests(BuildTraces(m))
	if len(reqs) != 1 || reqs[0].Complete {
		t.Fatalf("requests = %+v, want one incomplete", reqs)
	}
}

// TestLoadRefusesDumpsOfTwoRuns: two sets anchored a second apart are two
// runs on two clocks; their spans share no axis, and Load says so rather
// than lay one over the other.
func TestLoadRefusesDumpsOfTwoRuns(t *testing.T) {
	dir := t.TempDir()
	anchor := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	for i, at := range []time.Time{anchor, anchor.Add(time.Second)} {
		s := tracing.New(tracing.Config{Procs: 3, Dir: dir})
		s.SetWallStart(at)
		recordRequest(s, 1000)
		path, err := s.Final()
		if err != nil {
			t.Fatal(err)
		}
		// Both sets number their first dump 001: keep the first aside.
		if err := os.Rename(path, filepath.Join(dir, fmt.Sprintf("trace-run%d.json", i))); err != nil {
			t.Fatal(err)
		}
	}
	if m, err := Load(dir); err == nil {
		t.Fatalf("Load merged two runs' dumps into %d spans", len(m.Spans))
	} else if !strings.Contains(err.Error(), "two runs") {
		t.Fatalf("Load: %v, want a refusal naming two runs", err)
	}
}

// TestElectionsFromDumpedMarks: the events a cluster's observer receives,
// kept as marks by the span ring, dumped and loaded again, replay to the
// election history the live collector reported. The rule itself is
// obs.Agreement's and is tested there on this same script; this pins the
// round trip through the dump — the mark names, the new leader riding as
// the peer, the intervals' ends.
func TestElectionsFromDumpedMarks(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	set := tracing.New(tracing.Config{Procs: n, Dir: dir})
	ev := set.Sink()

	ms := func(d int) sim.Time { return sim.Time(d) * sim.Time(time.Millisecond) }
	for _, e := range []obs.Event{
		// Initial election: everyone converges on p2 by 30ms.
		{T: ms(10), What: obs.LeaderChange, Proc: 0, Peer: 2},
		{T: ms(20), What: obs.LeaderChange, Proc: 1, Peer: 2},
		{T: ms(30), What: obs.LeaderChange, Proc: 2, Peer: 2},
		// Leader p2 crashes at 100ms; survivors re-elect p0 by 147ms.
		{T: ms(100), What: obs.Down, Proc: 2, Peer: -1},
		{T: ms(120), What: obs.LeaderChange, Proc: 0, Peer: 0},
		{T: ms(147), What: obs.LeaderChange, Proc: 1, Peer: 0},
		// p2 restarts at 200ms and converges at 260ms.
		{T: ms(200), What: obs.Up, Proc: 2, Peer: -1},
		{T: ms(260), What: obs.LeaderChange, Proc: 2, Peer: 0},
	} {
		ev.OnEvent(e)
	}
	if _, err := set.Final(); err != nil {
		t.Fatal(err)
	}

	m, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	el := Elections(m)
	want := []Interval{
		{Start: 0, End: int64(ms(30)), Leader: 2},
		{Start: int64(ms(100)), End: int64(ms(147)), Leader: 0},
		{Start: int64(ms(200)), End: int64(ms(260)), Leader: 0},
	}
	if el.Elections != 3 || el.Changes != 6 || !reflect.DeepEqual(el.Intervals, want) {
		t.Fatalf("election = %+v, want 3 elections over %v", el, want)
	}
	if down := el.Downtimes(); len(down) != 3 || down[1] != 47*time.Millisecond {
		t.Fatalf("downtimes = %v", down)
	}
}

func TestWriteChromeAndSummary(t *testing.T) {
	dir := t.TempDir()
	s := tracing.New(tracing.Config{Procs: 3, Dir: dir})
	recordRequest(s, 500)
	s.Tracer(0).Mark(100, "leader-change", 0)
	s.Tracer(1).Mark(110, "leader-change", 0)
	s.Tracer(2).Mark(120, "leader-change", 0)
	if _, err := s.Final(); err != nil {
		t.Fatal(err)
	}
	m, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	traces := BuildTraces(m)
	reqs := Requests(traces)
	el := Elections(m)
	if el.Changes != 3 || el.Elections != 1 {
		t.Fatalf("election = %+v", el)
	}

	var sum bytes.Buffer
	WriteSummary(&sum, m, traces, reqs, el)
	for _, want := range []string{"1 traced, 1 complete", "leader p0"} {
		if !bytes.Contains(sum.Bytes(), []byte(want)) {
			t.Fatalf("summary missing %q:\n%s", want, sum.String())
		}
	}
	var tree bytes.Buffer
	WriteTraceTree(&tree, traces[0])
	for _, want := range []string{"request", "quorum", "accepted", "apply"} {
		if !bytes.Contains(tree.Bytes(), []byte(want)) {
			t.Fatalf("tree missing %q:\n%s", want, tree.String())
		}
	}
	var ch bytes.Buffer
	if err := WriteChrome(&ch, m); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"traceEvents"`, `"ph":"X"`, `"ph":"i"`, `"name":"quorum:accepted"`} {
		if !bytes.Contains(ch.Bytes(), []byte(want)) {
			t.Fatalf("chrome output missing %q", want)
		}
	}
}
