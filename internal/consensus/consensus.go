// Package consensus holds the types shared by the consensus protocols in
// this repository — the paper's leader-driven, communication-efficient
// synod protocol (internal/consensus/synod), its repeated/replicated-log
// form (internal/consensus/rsm), and the classic rotating-coordinator
// baseline (internal/consensus/ct) — together with ballot arithmetic and a
// safety checker (agreement, validity, integrity) used by tests and
// experiments.
package consensus

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/node"
	"repro/internal/sim"
)

// Value is a proposable command. The empty string is "no value".
type Value string

// NoValue is the absence of a value.
const NoValue Value = ""

// Noop is the filler command a new leader proposes for log gaps it must
// close before serving fresh commands (see internal/consensus/rsm).
const Noop Value = "__noop__"

// Decision records one learned outcome. With command batching a single
// decided instance carries several client commands; each gets its own
// Decision, distinguished by Cmd, so latency and safety are tracked per
// command rather than per batch.
type Decision struct {
	// Instance is the consensus instance (always 0 for single-decree).
	Instance int
	// Cmd is the command's position within the instance's decided value
	// (0 for unbatched values and single-decree protocols).
	Cmd int
	// Value is the decided value — the individual command, not the batch
	// envelope it rode in.
	Value Value
	// At is when this process learned the decision.
	At sim.Time
	// By is the learning process.
	By node.ID
	// Elapsed is the proposer-side decision latency for this command —
	// from the moment the leader enqueued it until it was applied. Only
	// the proposing leader knows it; everywhere else it is zero
	// ("unknown").
	Elapsed time.Duration
}

// recChunk is how many decisions one chunk of a Recorder's log holds, and
// recMaxHole how many unrecorded instances its index will span to reach a
// new one, so that a wild instance number cannot size the index.
const (
	recChunk   = 1024
	recMaxHole = 1 << 16
)

// row is a Decision as a Recorder keeps it, in 32 bytes for its 56: the
// instance is relative to the recorder's base, By is kept once per
// recorder and Elapsed beside the log. cmd < 0 marks a decision that does
// not fit (an instance or command index no int32 holds, a negative index,
// a second By) and is kept whole, at whole[^cmd].
type row struct {
	v         Value
	at        sim.Time
	inst, cmd int32
}

// Recorder collects the decisions one process learns. It is safe for
// concurrent use so live transports can observe it.
//
// The decisions sit in learning order in an append-only log of chunks of
// rows, so recording never copies what is already there; elapsed runs
// beside it, with a chunk only where a decision that has an Elapsed landed
// (at the leader that proposed it). start[inst-base] is one
// past the log position of command 0 of inst (base is the first instance
// recorded; 0 means not indexed). A replicated log records instance by
// instance with commands in order, so command k is at that position plus
// k: a lookup is one probe that checks what it finds, with no hashing.
// Anything recorded off that pattern is listed in strays, which lookups
// scan after a failed probe: exact for any input, empty in practice.
type Recorder struct {
	mu      sync.Mutex
	chunks  [][]row
	elapsed []*[recChunk]time.Duration
	whole   []Decision
	n       int
	base    int
	by      node.ID
	start   []int32
	strays  []int32
	notify  []func(d Decision)
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// AddNotify appends a hook invoked after each first-time decision record;
// the list only grows, like detector.History's. A hook runs on the
// recording goroutine, outside the recorder's lock; it must not block and
// must be safe for concurrent use if shared.
func (r *Recorder) AddNotify(fn func(d Decision)) {
	if fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notify = append(r.notify, fn)
}

func (r *Recorder) at(p int) *row { return &r.chunks[p/recChunk][p%recChunk] }

// holds reports whether log position p is the given command slot.
func (r *Recorder) holds(p, inst, cmd int) bool {
	w := r.at(p)
	if w.cmd < 0 {
		return r.whole[^w.cmd].Instance == inst && r.whole[^w.cmd].Cmd == cmd
	}
	return r.base+int(w.inst) == inst && int(w.cmd) == cmd
}

// decision unpacks log position p.
func (r *Recorder) decision(p int) Decision {
	w := r.at(p)
	if w.cmd < 0 {
		return r.whole[^w.cmd]
	}
	d := Decision{Instance: r.base + int(w.inst), Cmd: int(w.cmd), Value: w.v, At: w.at, By: r.by}
	if e := r.elapsed[p/recChunk]; e != nil {
		d.Elapsed = e[p%recChunk]
	}
	return d
}

// probe is the log position the index implies for a command slot, or -1.
func (r *Recorder) probe(inst, cmd int) int {
	if i := inst - r.base; i >= 0 && i < len(r.start) && r.start[i] != 0 && cmd >= 0 {
		return int(r.start[i]) - 1 + cmd
	}
	return -1
}

// find returns the log position of a command slot's decision, or -1; the
// caller holds the lock.
func (r *Recorder) find(inst, cmd int) int {
	if p := r.probe(inst, cmd); p >= 0 && p < r.n && r.holds(p, inst, cmd) {
		return p
	}
	for _, p := range r.strays {
		if r.holds(int(p), inst, cmd) {
			return int(p)
		}
	}
	return -1
}

// Record stores the first decision for a command slot; later records for
// the same (instance, cmd) are ignored (integrity is checked elsewhere).
func (r *Recorder) Record(d Decision) {
	r.mu.Lock()
	if r.find(d.Instance, d.Cmd) >= 0 {
		r.mu.Unlock()
		return
	}
	if r.n == 0 {
		r.base, r.by = d.Instance, d.By
	}
	i := d.Instance - r.base
	if d.Cmd == 0 && i >= 0 && i < len(r.start)+recMaxHole && r.probe(d.Instance, 0) < 0 {
		for len(r.start) <= i {
			r.start = append(r.start, 0)
		}
		r.start[i] = int32(r.n) + 1
	}
	if r.probe(d.Instance, d.Cmd) != r.n {
		r.strays = append(r.strays, int32(r.n))
	}
	if r.n%recChunk == 0 {
		// A whole chunk at a time, except the first, which grows from
		// nothing: single-decree protocols record one decision.
		r.chunks = append(r.chunks, make([]row, 0, min(r.n, recChunk)))
		r.elapsed = append(r.elapsed, nil)
	}
	w := row{v: d.Value, at: d.At, inst: int32(i), cmd: int32(d.Cmd)}
	if int(w.inst) != i || int(w.cmd) != d.Cmd || d.Cmd < 0 || d.By != r.by {
		w = row{cmd: ^int32(len(r.whole))}
		r.whole = append(r.whole, d)
	} else if d.Elapsed != 0 {
		e := &r.elapsed[r.n/recChunk]
		if *e == nil {
			*e = new([recChunk]time.Duration)
		}
		(*e)[r.n%recChunk] = d.Elapsed
	}
	c := &r.chunks[r.n/recChunk]
	*c = append(*c, w)
	r.n++
	notify := r.notify[:len(r.notify):len(r.notify)]
	r.mu.Unlock()
	for _, fn := range notify {
		fn(d)
	}
}

// Get returns the first command's decision for an instance, if learned —
// the whole decision for unbatched values.
func (r *Recorder) Get(instance int) (Decision, bool) { return r.GetCmd(instance, 0) }

// GetCmd returns the decision for one command slot of an instance, if
// learned.
func (r *Recorder) GetCmd(instance, cmd int) (Decision, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.find(instance, cmd); p >= 0 {
		return r.decision(p), true
	}
	return Decision{}, false
}

// Count returns how many commands this process has decided (equals the
// instance count when nothing is batched).
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// All returns the decisions in learning order (copy).
func (r *Recorder) All() []Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Decision, r.n)
	for p := range out {
		out[p] = r.decision(p)
	}
	return out
}

// Each calls fn with every decision held when it is called, in learning
// order, without copying the log. fn runs outside the recorder's lock.
func (r *Recorder) Each(fn func(d Decision)) {
	for p, n := 0, r.Count(); p < n; p++ {
		r.mu.Lock()
		d := r.decision(p)
		r.mu.Unlock()
		fn(d)
	}
}

// Ballot is a totally ordered proposal number with an owner. Ballot 0 means
// "none"; real ballots are round*n + owner + 1 so that distinct processes
// never collide and a process can always outbid any ballot it has seen.
type Ballot uint64

// NoBallot is the absence of a ballot.
const NoBallot Ballot = 0

// MakeBallot builds the ballot of the given round owned by id in an
// n-process system.
func MakeBallot(round int, id node.ID, n int) Ballot {
	return Ballot(uint64(round)*uint64(n) + uint64(id) + 1)
}

// Owner returns the process owning b in an n-process system.
func (b Ballot) Owner(n int) node.ID {
	if b == NoBallot {
		return node.None
	}
	return node.ID((uint64(b) - 1) % uint64(n))
}

// Round returns b's round in an n-process system.
func (b Ballot) Round(n int) int {
	if b == NoBallot {
		return -1
	}
	return int((uint64(b) - 1) / uint64(n))
}

// Next returns the smallest ballot owned by id that is strictly greater
// than b.
func (b Ballot) Next(id node.ID, n int) Ballot {
	round := 0
	if b != NoBallot {
		// Start in b's own round: a larger owner id may already outbid
		// b there, which keeps Next minimal.
		round = b.Round(n)
	}
	for {
		cand := MakeBallot(round, id, n)
		if cand > b {
			return cand
		}
		round++
	}
}

// String renders the ballot.
func (b Ballot) String() string {
	if b == NoBallot {
		return "⊥"
	}
	return fmt.Sprintf("b%d", uint64(b))
}

// Majority returns the minimum quorum size for n processes.
func Majority(n int) int { return n/2 + 1 }

// SafetyInput bundles what the safety checker needs.
type SafetyInput struct {
	// Recorders holds each process's learned decisions, indexed by id.
	Recorders []*Recorder
	// Proposed maps each instance to the set of values proposed for it
	// (for validity). A nil map skips the validity check.
	Proposed map[int][]Value
	// Crashed marks processes whose missing decisions are excusable.
	Crashed map[node.ID]sim.Time
}

// SafetyReport is the verdict of CheckSafety.
type SafetyReport struct {
	// Agreement: no two processes decided differently in any instance.
	Agreement bool
	// Validity: every decided value was proposed for its instance.
	Validity bool
	// TotalDecisions counts (process, instance) decisions observed.
	TotalDecisions int
	// Instances counts distinct decided instances.
	Instances int
	// Violations lists human-readable problems found.
	Violations []string
}

// Holds reports whether all checked properties hold.
func (r SafetyReport) Holds() bool { return r.Agreement && r.Validity }

// CheckSafety verifies consensus agreement and validity across a run.
// Agreement is checked per command slot: with batching, two processes must
// decide the same command at every (instance, position) pair, not merely
// the same batch envelope.
func CheckSafety(in SafetyInput) SafetyReport {
	rep := SafetyReport{Agreement: true, Validity: true}
	// chosen keeps the first decision seen for each command slot, whoever
	// made it (By is not recorded, so every row packs): a Recorder is the
	// slot table, and instances counts them.
	chosen := NewRecorder()
	var instances []int
	for id, r := range in.Recorders {
		if r == nil {
			continue
		}
		r.Each(func(d Decision) {
			rep.TotalDecisions++
			if p := chosen.find(d.Instance, d.Cmd); p >= 0 {
				if prev := chosen.at(p).v; prev != d.Value {
					rep.Agreement = false
					rep.Violations = append(rep.Violations, fmt.Sprintf(
						"instance %d cmd %d: p%d decided %q but %q was decided elsewhere", d.Instance, d.Cmd, id, d.Value, prev))
				}
				return
			}
			chosen.Record(Decision{Instance: d.Instance, Cmd: d.Cmd, Value: d.Value})
			if k := len(instances); k == 0 || instances[k-1] != d.Instance {
				instances = append(instances, d.Instance) // once per run of an instance's commands
			}
			// Noop is the gap filler, proposed by the protocol itself.
			if in.Proposed != nil && d.Value != Noop && !slices.Contains(in.Proposed[d.Instance], d.Value) {
				rep.Validity = false
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"instance %d cmd %d: decided %q was never proposed", d.Instance, d.Cmd, d.Value))
			}
		})
	}
	slices.Sort(instances)
	rep.Instances = len(slices.Compact(instances))
	return rep
}

// Leadership is the view a consensus engine has of its co-located Omega
// module. detector.Omega satisfies it.
type Leadership interface {
	Leader() node.ID
}

// StaticLeader is a Leadership that always returns the same process —
// useful in unit tests.
type StaticLeader node.ID

// Leader implements Leadership.
func (s StaticLeader) Leader() node.ID { return node.ID(s) }
