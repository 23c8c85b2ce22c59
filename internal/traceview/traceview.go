// Package traceview turns the flight-recorder dumps (internal/tracing)
// of one run into a single causally ordered timeline. It is the analysis
// half of the tracing layer: cmd/traceview is a thin CLI over this
// package.
//
// The pipeline is Load → BuildTraces / Requests / Elections:
//
//   - Load reads every dump of one tracing.Set and dedupes spans (ids
//     embed the recording process, so a span evicted from one dump
//     survives via an earlier one). Every process of a run reads one
//     clock — a simulated world's kernel, or the live cluster's clock,
//     read at the sender before a frame is queued — so no receive can
//     precede its send and the spans need no correction. Dumps of two
//     runs carry different wall anchors, and Load refuses them.
//   - Requests reconstructs request→queue→quorum→send/accept→apply
//     chains and their per-stage latency breakdown; Elections replays
//     leader-change/down/up marks through obs.Agreement, the election
//     tracker telemetry.Collector runs live, so the reconstructed downtime
//     intervals are the ones the /metrics endpoint put in its histogram.
//
// The package subscribes to nothing: it reads what the span ring dumped.
package traceview

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tracing"
)

// Merged is the deduped union of every loaded dump. All span times are
// nanoseconds since Base, the run's wall anchor.
type Merged struct {
	Base    time.Time
	Procs   int
	Spans   []tracing.SpanJSON
	Dropped map[int]uint64 // per proc: spans evicted before any dump caught them
	Files   []string
}

// Load reads flight-recorder dumps from the given paths — directories
// are scanned for trace-*.json — and merges them. The dumps must be of
// one run: Load refuses dumps whose wall anchors differ.
func Load(paths ...string) (*Merged, error) {
	var files []string
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, fmt.Errorf("traceview: %w", err)
		}
		if !info.IsDir() {
			files = append(files, p)
			continue
		}
		found, err := filepath.Glob(filepath.Join(p, "trace-*.json"))
		if err != nil {
			return nil, err
		}
		if len(found) == 0 {
			return nil, fmt.Errorf("traceview: no trace-*.json dumps under %s", p)
		}
		sort.Strings(found)
		files = append(files, found...)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("traceview: no dump files given")
	}

	m := &Merged{Dropped: make(map[int]uint64), Files: files}
	// Dedupe on span id (ids embed the recording process, so they are
	// unique across the whole set). A closed record wins over an open
	// snapshot of the same span; among open snapshots the later dump —
	// more events — wins.
	best := make(map[uint64]tracing.SpanJSON)
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, fmt.Errorf("traceview: %w", err)
		}
		var d tracing.Dump
		if err := json.Unmarshal(data, &d); err != nil {
			return nil, fmt.Errorf("traceview: %s: %w", f, err)
		}
		wall, err := time.Parse(time.RFC3339Nano, d.WallStart)
		if err != nil {
			return nil, fmt.Errorf("traceview: %s: wall_start %q: %w", f, d.WallStart, err)
		}
		if i == 0 {
			m.Base = wall
		} else if !wall.Equal(m.Base) {
			return nil, fmt.Errorf("traceview: %s: wall_start %s is not %s's %s: dumps of two runs do not merge",
				f, d.WallStart, files[0], m.Base.Format(time.RFC3339Nano))
		}
		for _, pd := range d.Procs {
			if pd.Proc+1 > m.Procs {
				m.Procs = pd.Proc + 1
			}
			if pd.Dropped > m.Dropped[pd.Proc] {
				m.Dropped[pd.Proc] = pd.Dropped
			}
			for _, sp := range pd.Spans {
				cur, seen := best[sp.ID]
				switch {
				case !seen:
					best[sp.ID] = sp
				case cur.Open && !sp.Open:
					best[sp.ID] = sp
				case cur.Open && sp.Open && len(sp.Events) >= len(cur.Events):
					best[sp.ID] = sp
				}
			}
		}
	}
	m.Spans = make([]tracing.SpanJSON, 0, len(best))
	for _, sp := range best {
		m.Spans = append(m.Spans, sp)
	}
	sort.Slice(m.Spans, func(i, j int) bool {
		a, b := m.Spans[i], m.Spans[j]
		if a.StartNS != b.StartNS {
			return a.StartNS < b.StartNS
		}
		return a.ID < b.ID
	})
	return m, nil
}

// noteEarliest keeps, per parent span and process, the start of the
// earliest span that process recorded under that parent.
func noteEarliest(recv map[uint64]map[int]int64, sp *tracing.SpanJSON) {
	procs, ok := recv[sp.Parent]
	if !ok {
		procs = make(map[int]int64)
		recv[sp.Parent] = procs
	}
	if cur, ok := procs[sp.Proc]; !ok || sp.StartNS < cur {
		procs[sp.Proc] = sp.StartNS
	}
}

// Trace is one causal tree: every span sharing a trace id, ordered by
// corrected start time.
type Trace struct {
	ID    uint64
	Root  *tracing.SpanJSON // nil when the root span was evicted
	Spans []tracing.SpanJSON
}

// BuildTraces groups spans into traces. Marks (parentless zero-length
// spans whose trace id is their own id and that have no children) are
// excluded — they are cluster events, not traces; see Elections.
func BuildTraces(m *Merged) []Trace {
	byTrace := make(map[uint64][]tracing.SpanJSON)
	for _, sp := range m.Spans {
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
	}
	traces := make([]Trace, 0, len(byTrace))
	for id, spans := range byTrace {
		if len(spans) == 1 && isMark(spans[0]) {
			continue
		}
		tr := Trace{ID: id, Spans: spans}
		for i := range spans {
			if spans[i].ID == id && spans[i].Parent == 0 {
				tr.Root = &tr.Spans[i]
				break
			}
		}
		traces = append(traces, tr)
	}
	sort.Slice(traces, func(i, j int) bool {
		return traces[i].Spans[0].StartNS < traces[j].Spans[0].StartNS
	})
	return traces
}

func isMark(sp tracing.SpanJSON) bool {
	switch sp.Name {
	case "leader-change", "down", "up", "prepare", "prepared", "abdicate",
		"fallback-read", "fsync-slow":
		return true
	}
	return false
}

// Stages is the per-stage latency breakdown of one request: where the
// end-to-end time went.
type Stages struct {
	Queue  time.Duration // client batch enqueued → proposed
	Quorum time.Duration // ACCEPT broadcast → majority ACCEPTED (decide)
	Wire   time.Duration // leader send → follower accept, fastest link
	Apply  time.Duration // decide → state-machine apply
	Total  time.Duration // request ingress → last apply
}

// Request is one reconstructed request trace.
type Request struct {
	Trace    uint64
	Start    int64 // ns since Merged.Base
	Complete bool  // full request→queue→quorum→apply chain present
	Spans    int
	Stages   Stages
}

// Requests reconstructs every trace rooted at a "request" span. A
// request is Complete when the whole chain survived in the dumps: the
// root, at least one queue span, a closed quorum span, and an apply
// span.
func Requests(traces []Trace) []Request {
	var out []Request
	for _, tr := range traces {
		if tr.Root == nil || tr.Root.Name != "request" {
			continue
		}
		r := Request{Trace: tr.ID, Start: tr.Root.StartNS, Spans: len(tr.Spans)}
		var qFirst, qLast, quorumStart, quorumEnd, applyFirst, applyEnd int64 = -1, -1, -1, -1, -1, -1
		var quorumClosed bool
		sends := map[uint64][]tracing.SpanJSON{} // parent -> send spans
		recvs := map[uint64]map[int]int64{}      // parent -> proc -> earliest receiver span
		for _, sp := range tr.Spans {
			switch sp.Name {
			case "queue":
				if qFirst < 0 || sp.StartNS < qFirst {
					qFirst = sp.StartNS
				}
				if sp.EndNS > qLast {
					qLast = sp.EndNS
				}
			case "quorum":
				if quorumStart < 0 || sp.StartNS < quorumStart {
					quorumStart = sp.StartNS
				}
				if !sp.Open {
					quorumClosed = true
					if sp.EndNS > quorumEnd {
						quorumEnd = sp.EndNS
					}
				}
			case "apply":
				if applyFirst < 0 || sp.StartNS < applyFirst {
					applyFirst = sp.StartNS
				}
				if sp.EndNS > applyEnd {
					applyEnd = sp.EndNS
				}
			case "send":
				sends[sp.Parent] = append(sends[sp.Parent], sp)
			default:
			}
			if sp.Parent != 0 && sp.Name != "send" {
				noteEarliest(recvs, &sp)
			}
		}
		if qFirst >= 0 && qLast > qFirst {
			r.Stages.Queue = time.Duration(qLast - qFirst)
		}
		if quorumClosed && quorumEnd > quorumStart {
			r.Stages.Quorum = time.Duration(quorumEnd - quorumStart)
		}
		wire := int64(-1)
		for parent, ss := range sends {
			for _, s := range ss {
				if t, ok := recvs[parent][s.Peer]; ok {
					if d := t - s.StartNS; d >= 0 && (wire < 0 || d < wire) {
						wire = d
					}
				}
			}
		}
		if wire >= 0 {
			r.Stages.Wire = time.Duration(wire)
		}
		if applyEnd > 0 {
			if applyFirst >= 0 && applyEnd > applyFirst {
				r.Stages.Apply = time.Duration(applyEnd - applyFirst)
			}
			r.Stages.Total = time.Duration(applyEnd - tr.Root.StartNS)
		}
		r.Complete = qFirst >= 0 && quorumClosed && applyEnd > 0
		out = append(out, r)
	}
	return out
}

// Interval is one downtime span: agreement broke (or the run started) at
// Start and re-formed at End, ns since Merged.Base. An open interval
// (End < 0) means agreement never re-formed before the dumps end.
type Interval struct {
	Start, End int64
	Leader     int // agreed leader once re-formed, -1 while open
}

// Duration returns a closed interval's length.
func (iv Interval) Duration() time.Duration { return time.Duration(iv.End - iv.Start) }

// Election is the reconstructed leader-election history.
type Election struct {
	Changes   int        // transitions of a process's output to a leader
	Elections int        // agreement formations (telemetry's elections counter)
	Intervals []Interval // downtime intervals, in time order
}

// Downtimes lists the interval durations — the values telemetry records
// into its election_downtime histogram.
func (e Election) Downtimes() []time.Duration {
	out := make([]time.Duration, 0, len(e.Intervals))
	for _, iv := range e.Intervals {
		if iv.End >= 0 {
			out = append(out, iv.Duration())
		}
	}
	return out
}

// Elections replays the leader-change, down, and up marks, in time order,
// through obs.Agreement (which documents the rule); each agreement it
// forms closes one downtime interval.
func Elections(m *Merged) Election {
	var marks []obs.Event
	for _, sp := range m.Spans {
		e := obs.Event{T: sim.Time(sp.StartNS), Proc: sp.Proc, Peer: sp.Peer}
		switch sp.Name {
		case obs.LeaderChange.String():
			e.What = obs.LeaderChange
		case obs.Down.String():
			e.What = obs.Down
		case obs.Up.String():
			e.What = obs.Up
		default:
			continue
		}
		marks = append(marks, e)
	}
	sort.SliceStable(marks, func(i, j int) bool {
		if marks[i].T != marks[j].T {
			return marks[i].T < marks[j].T
		}
		return marks[i].Proc < marks[j].Proc
	})

	el := Election{}
	agree := obs.NewAgreement(m.Procs)
	for _, e := range marks {
		if downtime, formed := agree.Feed(e); formed {
			el.Intervals = append(el.Intervals, Interval{Start: int64(e.T) - int64(downtime), End: int64(e.T), Leader: agree.Leader()})
			el.Elections++
		}
	}
	el.Changes = agree.Changes
	if since, open := agree.Open(); open {
		el.Intervals = append(el.Intervals, Interval{Start: int64(since), End: -1, Leader: -1})
	}
	return el
}

// quantile returns the q-quantile of ds (nearest-rank), 0 when empty.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// WriteSummary prints the merged view: request latency percentiles with
// per-stage breakdown, and the reconstructed election history.
func WriteSummary(w io.Writer, m *Merged, traces []Trace, reqs []Request, el Election) {
	fmt.Fprintf(w, "traceview: %d dumps, %d spans, %d procs", len(m.Files), len(m.Spans), m.Procs)
	var dropped uint64
	for _, d := range m.Dropped {
		dropped += d
	}
	if dropped > 0 {
		fmt.Fprintf(w, " (%d spans evicted before capture)", dropped)
	}
	fmt.Fprintln(w)

	complete := 0
	var totals, queues, quorums, wires, applies []time.Duration
	for _, r := range reqs {
		if !r.Complete {
			continue
		}
		complete++
		totals = append(totals, r.Stages.Total)
		queues = append(queues, r.Stages.Queue)
		quorums = append(quorums, r.Stages.Quorum)
		wires = append(wires, r.Stages.Wire)
		applies = append(applies, r.Stages.Apply)
	}
	fmt.Fprintf(w, "requests:  %d traced, %d complete\n", len(reqs), complete)
	if complete > 0 {
		fmt.Fprintf(w, "latency:   total p50 %v p99 %v\n", quantile(totals, 0.50), quantile(totals, 0.99))
		fmt.Fprintf(w, "stages:    queue p50 %v p99 %v | quorum p50 %v p99 %v | wire p50 %v p99 %v | apply p50 %v p99 %v\n",
			quantile(queues, 0.50), quantile(queues, 0.99),
			quantile(quorums, 0.50), quantile(quorums, 0.99),
			quantile(wires, 0.50), quantile(wires, 0.99),
			quantile(applies, 0.50), quantile(applies, 0.99))
	}

	fmt.Fprintf(w, "election:  %d leader-change marks, %d agreements\n", el.Changes, el.Elections)
	for _, iv := range el.Intervals {
		if iv.End < 0 {
			fmt.Fprintf(w, "downtime:  [%v, …) OPEN — no agreement by the dumps' end\n", time.Duration(iv.Start))
			continue
		}
		fmt.Fprintf(w, "downtime:  [%v, %v] %v → leader p%d\n",
			time.Duration(iv.Start), time.Duration(iv.End), iv.Duration(), iv.Leader)
	}
}

// WriteTraceTree prints one trace as an indented, causally ordered tree.
func WriteTraceTree(w io.Writer, tr Trace) {
	children := make(map[uint64][]tracing.SpanJSON)
	var roots []tracing.SpanJSON
	byID := make(map[uint64]bool, len(tr.Spans))
	for _, sp := range tr.Spans {
		byID[sp.ID] = true
	}
	for _, sp := range tr.Spans {
		if sp.Parent != 0 && byID[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	order := func(ss []tracing.SpanJSON) {
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].StartNS != ss[j].StartNS {
				return ss[i].StartNS < ss[j].StartNS
			}
			return ss[i].ID < ss[j].ID
		})
	}
	order(roots)
	fmt.Fprintf(w, "trace %016x (%d spans)\n", tr.ID, len(tr.Spans))
	var walk func(sp tracing.SpanJSON, depth int)
	walk = func(sp tracing.SpanJSON, depth int) {
		indent := ""
		for i := 0; i < depth; i++ {
			indent += "  "
		}
		state := ""
		if sp.Open {
			state = " OPEN"
		}
		note := ""
		if sp.Note != "" {
			note = " " + sp.Note
		}
		peer := ""
		if sp.Peer >= 0 {
			peer = fmt.Sprintf(" →p%d", sp.Peer)
		}
		fmt.Fprintf(w, "  %s%-9s p%d%s  +%v %v%s%s\n",
			indent, sp.Name, sp.Proc, peer,
			time.Duration(sp.StartNS), time.Duration(sp.EndNS-sp.StartNS), note, state)
		for _, e := range sp.Events {
			ep := ""
			if e.Peer >= 0 {
				ep = fmt.Sprintf(" p%d", e.Peer)
			}
			fmt.Fprintf(w, "  %s  · %s%s +%v\n", indent, e.Name, ep, time.Duration(e.TNS))
		}
		cs := children[sp.ID]
		order(cs)
		for _, c := range cs {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}

// WriteChrome emits the merged spans as Chrome trace_event JSON
// (chrome://tracing, Perfetto). Completed spans become "X" events,
// zero-length marks and span events become instants; pid/tid is the
// recording process.
func WriteChrome(w io.Writer, m *Merged) error {
	type chromeEvent struct {
		Name  string         `json:"name"`
		Cat   string         `json:"cat"`
		Phase string         `json:"ph"`
		TS    float64        `json:"ts"` // microseconds
		Dur   float64        `json:"dur,omitempty"`
		PID   int            `json:"pid"`
		TID   int            `json:"tid"`
		Scope string         `json:"s,omitempty"`
		Args  map[string]any `json:"args,omitempty"`
	}
	var events []chromeEvent
	for _, sp := range m.Spans {
		args := map[string]any{"trace": fmt.Sprintf("%016x", sp.Trace)}
		if sp.Note != "" {
			args["note"] = sp.Note
		}
		if sp.Peer >= 0 {
			args["peer"] = sp.Peer
		}
		cat := "span"
		if isMark(sp) {
			cat = "mark"
		}
		if sp.EndNS > sp.StartNS {
			events = append(events, chromeEvent{
				Name: sp.Name, Cat: cat, Phase: "X",
				TS: float64(sp.StartNS) / 1e3, Dur: float64(sp.EndNS-sp.StartNS) / 1e3,
				PID: sp.Proc, TID: sp.Proc, Args: args,
			})
		} else {
			events = append(events, chromeEvent{
				Name: sp.Name, Cat: cat, Phase: "i", Scope: "p",
				TS: float64(sp.StartNS) / 1e3, PID: sp.Proc, TID: sp.Proc, Args: args,
			})
		}
		for _, e := range sp.Events {
			events = append(events, chromeEvent{
				Name: sp.Name + ":" + e.Name, Cat: "event", Phase: "i", Scope: "t",
				TS: float64(e.TNS) / 1e3, PID: sp.Proc, TID: sp.Proc,
				Args: map[string]any{"peer": e.Peer},
			})
		}
	}
	doc := struct {
		TraceEvents []chromeEvent  `json:"traceEvents"`
		Metadata    map[string]any `json:"metadata"`
	}{
		TraceEvents: events,
		Metadata: map[string]any{
			"wall_start": m.Base.UTC().Format(time.RFC3339Nano),
			"dumps":      len(m.Files),
		},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}
