package tracing

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Config parameterizes a tracing Set. Zero values select defaults.
type Config struct {
	// Procs is the number of processes (required, > 0).
	Procs int
	// Limit bounds each process's completed-span ring (default 4096).
	Limit int
	// SampleEvery samples one in this many StartTrace calls (<= 1 traces
	// every call). Sampling is decided once at ingress; everything under
	// a sampled-out context is free.
	SampleEvery int
	// Dir is where flight-recorder dumps are written ("" disables
	// dumps; spans are still recorded and readable via WriteJSON).
	Dir string
}

// maxDumps caps dumps per trigger reason so a repeating anomaly cannot
// flood the directory. Final dumps are exempt.
const maxDumps = 4

func (c *Config) fill() {
	if c.Limit <= 0 {
		c.Limit = 4096
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 1
	}
}

// Set is the cluster-wide tracing state: one Tracer per process, the
// sampling counter they share, and the flight recorder. A nil *Set
// (tracing.Nop) is the disabled layer; all methods no-op.
type Set struct {
	cfg     Config
	tracers []*Tracer

	wallStart atomic.Pointer[time.Time]

	sampleCtr atomic.Uint64

	// dumps counts triggers per reason. Reasons are a handful of constant
	// strings, so the table is copied (under reasonMu) the first time each
	// is seen and read with one atomic load ever after.
	reasonMu  sync.Mutex
	dumps     atomic.Pointer[map[string]*atomic.Int64]
	dumpSeq   atomic.Int64
	triggered atomic.Uint64 // total triggers accepted (capped ones excluded)
}

// Nop is the disabled tracing layer: a nil Set. Every method on a nil
// Set or the nil Tracers it hands out is a no-op costing one nil check,
// which is what keeps the sim and live hot paths at 0 allocs/op with
// tracing off.
var Nop *Set

// New returns an enabled tracing set for cfg.Procs processes, anchored
// at the current wall instant (see SetWallStart).
func New(cfg Config) *Set {
	cfg.fill()
	s := &Set{cfg: cfg}
	s.SetWallStart(time.Now())
	s.dumps.Store(&map[string]*atomic.Int64{})
	s.tracers = make([]*Tracer, cfg.Procs)
	for i := range s.tracers {
		s.tracers[i] = &Tracer{set: s, proc: i, open: make(map[SpanID]*SpanJSON)}
	}
	return s
}

// Tracer returns process proc's tracer, or nil when the set is nil or
// proc is out of range — callers hold the result and never re-check.
func (s *Set) Tracer(proc int) *Tracer {
	if s == nil || proc < 0 || proc >= len(s.tracers) {
		return nil
	}
	return s.tracers[proc]
}

// SetWallStart re-anchors span times to an absolute wall instant: a span
// at T happened at start.Add(T). A live harness passes the wall instant
// of its cluster clock's zero, so spans line up with outside logs;
// simulator harnesses leave the New anchor, where virtual time zero maps
// to the moment the set was built. The anchor names the run: traceview
// merges only dumps that share it.
func (s *Set) SetWallStart(start time.Time) {
	if s != nil {
		s.wallStart.Store(&start)
	}
}

// Stamp returns the current trace timestamp — wall time since the
// anchor — for harness code recording events (crashes, verdicts) on the
// same clock as the spans.
func (s *Set) Stamp() sim.Time {
	if s == nil {
		return 0
	}
	return sim.Time(time.Since(*s.wallStart.Load()).Nanoseconds())
}

// sample makes one sampling decision.
func (s *Set) sample() bool {
	if s == nil {
		return false
	}
	if s.cfg.SampleEvery <= 1 {
		return true
	}
	return s.sampleCtr.Add(1)%uint64(s.cfg.SampleEvery) == 1
}

// Triggered returns how many flight-recorder dumps have been accepted.
func (s *Set) Triggered() uint64 {
	if s == nil {
		return 0
	}
	return s.triggered.Load()
}

// Trigger fires the flight recorder: the current span history of every
// process is dumped to Config.Dir as one JSON file named
// trace-<seq>-<reason>.json. Recording continues afterwards — the ring
// is snapshotted, not frozen — so the anomaly's aftermath lands in the
// next dump or the final one. Dumps are capped per reason; a capped
// trigger (or a dirless set) returns at once without a lock — the sink
// calls this per dropped frame from every link sender, which is to say
// exactly while a queue is shedding.
func (s *Set) Trigger(now sim.Time, proc int, reason string) {
	if s == nil || s.cfg.Dir == "" {
		return
	}
	if n := s.dumpCount(reason); n.Load() >= maxDumps || n.Add(1) > maxDumps {
		return
	}
	s.triggered.Add(1)
	if err := s.writeDump(s.dumpPath(reason), reason, now, proc); err != nil {
		fmt.Fprintf(os.Stderr, "tracing: flight dump %q: %v\n", reason, err)
	}
}

// dumpCount returns reason's trigger count.
func (s *Set) dumpCount(reason string) *atomic.Int64 {
	if n := (*s.dumps.Load())[reason]; n != nil {
		return n
	}
	s.reasonMu.Lock()
	defer s.reasonMu.Unlock()
	old := *s.dumps.Load()
	if n := old[reason]; n != nil {
		return n
	}
	next := make(map[string]*atomic.Int64, len(old)+1)
	for r, n := range old {
		next[r] = n
	}
	n := new(atomic.Int64)
	next[reason] = n
	s.dumps.Store(&next)
	return n
}

// Final writes the end-of-run dump (reason "final", exempt from the
// per-reason cap) and returns its path. Harnesses call it before exit
// so traceview always has the complete tail even when nothing anomalous
// fired.
func (s *Set) Final() (string, error) {
	if s == nil || s.cfg.Dir == "" {
		return "", nil
	}
	path := s.dumpPath("final")
	return path, s.writeDump(path, "final", s.Stamp(), -1)
}

// dumpPath names the next dump file.
func (s *Set) dumpPath(reason string) string {
	return filepath.Join(s.cfg.Dir, fmt.Sprintf("trace-%03d-%s.json", s.dumpSeq.Add(1), reason))
}

func (s *Set) writeDump(path, reason string, now sim.Time, proc int) error {
	if err := os.MkdirAll(s.cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("create -trace-dir %s: %w", s.cfg.Dir, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create dump under -trace-dir: %w", err)
	}
	werr := s.encodeDump(f, reason, now, proc)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// WriteJSON writes the current span history of every process as one
// dump document — the /trace endpoint's payload, same schema as the
// flight-recorder files.
func (s *Set) WriteJSON(w io.Writer) error {
	if s == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	return s.encodeDump(w, "snapshot", s.Stamp(), -1)
}

// Dump is the on-disk flight-recorder document: one snapshot of every
// process's span history. Every dump of one set carries the set's wall
// anchor, and its times are on the one clock of that run.
type Dump struct {
	Reason    string     `json:"reason"`
	WallStart string     `json:"wall_start"` // RFC3339Nano anchor for all *_ns offsets
	AtNS      int64      `json:"at_ns"`      // trigger instant, ns since WallStart
	Proc      int        `json:"proc"`       // triggering process, -1 for whole-set dumps
	Procs     []ProcDump `json:"procs"`
}

// ProcDump is one process's slice of a Dump.
type ProcDump struct {
	Proc    int        `json:"proc"`
	Dropped uint64     `json:"dropped"`
	Spans   []SpanJSON `json:"spans"`
}

// SpanJSON is one recorded operation, in memory as it is dumped: a named
// interval on one process, attached under a parent span (possibly on
// another process). Peer is the directed-link partner for wire-level
// child spans and the subject of a mark, -1 otherwise. Note carries an
// optional short annotation (the message kind for wire sends, the text of
// a note); the record path never formats one. Times are nanoseconds since
// the set's wall anchor.
type SpanJSON struct {
	Trace   uint64      `json:"trace"`
	ID      uint64      `json:"id"`
	Parent  uint64      `json:"parent,omitempty"`
	Name    string      `json:"name"`
	Proc    int         `json:"proc"`
	Peer    int         `json:"peer"`
	StartNS int64       `json:"start_ns"`
	EndNS   int64       `json:"end_ns"`
	Note    string      `json:"note,omitempty"`
	Open    bool        `json:"open,omitempty"`
	Events  []EventJSON `json:"events,omitempty"`
}

// EventJSON is a point-in-time annotation on a span (an ACCEPTED arriving
// from one peer, a decide). Peer is -1 when not applicable.
type EventJSON struct {
	TNS  int64  `json:"t_ns"`
	Name string `json:"name"`
	Peer int    `json:"peer"`
}

func (s *Set) encodeDump(w io.Writer, reason string, now sim.Time, proc int) error {
	d := Dump{
		Reason:    reason,
		WallStart: s.wallStart.Load().UTC().Format(time.RFC3339Nano),
		AtNS:      int64(now),
		Proc:      proc,
		Procs:     make([]ProcDump, 0, len(s.tracers)),
	}
	for _, t := range s.tracers {
		t.mu.Lock()
		d.Procs = append(d.Procs, ProcDump{Proc: t.proc, Dropped: t.dropped, Spans: t.snapshotLocked()})
		t.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&d)
}

// SlowFsync is the WAL fsync duration from which the flight recorder
// fires (reason "fsync-slow"): an order of magnitude above a healthy
// loopback fsync, low enough to catch a stalling disk mid-soak.
const SlowFsync = 25 * time.Millisecond

// Sink subscribes the set to the observer pipeline. Wire-level send
// events for traced messages arrive through OnSendCtx (the transports
// read the context off node.Traced messages); each becomes a completed
// zero-length "send" span under the carried parent — the
// per-directed-link children of a quorum span. Of the events (OnEvent),
// leader changes, crashes, rejoins and notes are kept as marks, which is
// what traceview replays elections from. Leader changes, crashes, message
// drops and slow fsyncs fire the flight recorder (capped like any
// trigger). A nil set yields a nil Sink, which obs.Tee skips.
func (s *Set) Sink() obs.Sink { return s.sink(false) }

// MessageSink is Sink keeping every message event as a mark as well: SEND
// and DROP at the sender, DELIVER at the receiver, the message kind as the
// note. WriteText prints such a ring as the run's event log; Config.Limit
// bounds it per process.
func (s *Set) MessageSink() obs.Sink { return s.sink(true) }

func (s *Set) sink(msgs bool) obs.Sink {
	if s == nil {
		return nil
	}
	return setSink{s: s, msgs: msgs}
}

type setSink struct {
	obs.Nop // wire bytes
	s       *Set
	msgs    bool
}

func (k setSink) OnSend(t sim.Time, from, to int, kind obs.Kind) {
	if k.msgs {
		k.s.Tracer(from).mark(t, "SEND", to, obs.KindName(kind))
	}
}

func (k setSink) OnDeliver(t sim.Time, from, to int, kind obs.Kind) {
	if k.msgs {
		k.s.Tracer(to).mark(t, "DELIVER", from, obs.KindName(kind))
	}
}

func (k setSink) OnDrop(t sim.Time, from, to int, kind obs.Kind) {
	if k.msgs {
		k.s.Tracer(from).mark(t, "DROP", to, obs.KindName(kind))
	}
	k.s.Trigger(t, from, "message-drop")
}

// OnSendCtx implements obs.Sink. An event log has the send already.
func (k setSink) OnSendCtx(t sim.Time, from, to int, kind obs.Kind, trace, span uint64) {
	if k.msgs {
		return
	}
	parent := Context{Trace: TraceID(trace), Span: SpanID(span)}
	k.s.Tracer(from).Record(t, t, parent, "send", to, obs.KindName(kind))
}

// OnEvent implements obs.Sink. Marks carry the event's own name
// (obs.What.String), the new leader as the peer of a leader-change.
func (k setSink) OnEvent(e obs.Event) {
	tr := k.s.Tracer(e.Proc)
	switch e.What {
	case obs.LeaderChange:
		tr.mark(e.T, e.What.String(), e.Peer, "")
		tr.Trigger(e.T, "leader-change")
	case obs.Down:
		tr.mark(e.T, e.What.String(), -1, "")
		tr.Trigger(e.T, "crash")
	case obs.Up, obs.Note:
		tr.mark(e.T, e.What.String(), -1, e.Text)
	case obs.WALFsync:
		if e.Dur >= SlowFsync {
			tr.mark(e.T, "fsync-slow", -1, "")
			tr.Trigger(e.T, "fsync-slow")
		}
	}
}

// Marks returns every process's retained spans merged in time order
// (equal times: by process, then in recording order) — of a MessageSink
// set, the event log.
func (s *Set) Marks() []SpanJSON {
	var all []SpanJSON
	for _, t := range s.tracers {
		t.mu.Lock()
		all = append(all, t.snapshotLocked()...)
		t.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].StartNS != all[j].StartNS {
			return all[i].StartNS < all[j].StartNS
		}
		return all[i].ID < all[j].ID // ids lead with the process
	})
	return all
}

// WriteText writes the last n of Marks (all of them when n <= 0), one per
// line: offset, name, process, →peer and note where there are any. With
// wall set each line leads with the wall-clock time the offset stands for
// (see SetWallStart), which lines a live run up with outside logs.
func (s *Set) WriteText(w io.Writer, n int, wall bool) error {
	marks := s.Marks()
	if n > 0 && n < len(marks) {
		marks = marks[len(marks)-n:]
	}
	start := *s.wallStart.Load()
	for _, m := range marks {
		line := fmt.Sprintf("%12v %-7s p%d", sim.Time(m.StartNS), m.Name, m.Proc)
		if m.Peer >= 0 {
			line += fmt.Sprintf("→p%d", m.Peer)
		}
		if m.Note != "" {
			line += " " + m.Note
		}
		if wall {
			line = start.Add(time.Duration(m.StartNS)).Format("15:04:05.000000") + " " + line
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
