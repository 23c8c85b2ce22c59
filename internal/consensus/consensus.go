// Package consensus holds the types shared by the consensus protocols in
// this repository — the paper's leader-driven, communication-efficient
// protocol as a replicated log (internal/consensus/rsm), and the classic
// rotating-coordinator baseline (internal/consensus/ct) — together with
// ballot arithmetic and a safety checker (agreement, validity) used by
// tests and experiments.
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
	// At is when this process learned the decision. The hooks of its
	// Recorder are handed it (AddNotify); read back from a Recorder it is
	// zero, like Elapsed.
	At sim.Time
	// By is the learning process.
	By node.ID
	// Elapsed is the proposer-side decision latency for this command —
	// from the moment the leader enqueued it until it was applied. Only
	// the proposing leader knows it, and only the hooks of its Recorder
	// are handed it (AddNotify); everywhere else, and read back from a
	// Recorder, it is zero ("unknown").
	Elapsed time.Duration
}

// row is what a Recorder keeps of one decided instance: its value exactly as
// decided, 16 bytes; its commands are cut from it on read.
type row struct {
	v Value
}

// Recorder is the log of the instances one process has decided, in
// instance order. It is safe for concurrent use so live transports can
// observe it.
//
// The commands batched into an instance share its number and its bytes, so
// there is one row per instance, cut into a Decision per command on read.
// Row p is instance base+p, base being the first instance recorded —
// wherever the process began applying, a snapshot's index after a restore —
// so a lookup is a subtraction. The learner is the Recorder's own: the first
// record names it. When a decision was learned (At) and, where only the
// proposing leader knows it, how long it took (Elapsed) are handed to the
// hooks and not kept: a decision read back has neither, as agreement and
// validity are about values alone.
type Recorder struct {
	// Split, set before anything is recorded, appends the commands in an
	// instance's value to cmds, in order; without it a value is one command.
	Split  func(cmds []Value, v Value) []Value
	mu     sync.Mutex
	log    []row
	base   int // the instance of log[0]
	n      int // decisions in log
	by     node.ID
	notify []func(d Decision)
	cmds   []Value    // cut's scratch
	buf    []Decision // what cut returns
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// AddNotify appends a hook invoked once per command after each first-time
// record, in log order; the list only grows, like detector.History's. A
// hook runs on the recording goroutine, outside the recorder's lock; it
// must not block and must be safe for concurrent use if shared.
func (r *Recorder) AddNotify(fn func(d Decision)) {
	if fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notify = append(r.notify, fn)
}

// cut returns the decisions of row p, good until the next cut; the caller
// holds the lock.
func (r *Recorder) cut(p int) []Decision {
	v := r.log[p].v
	r.cmds, r.buf = append(r.cmds[:0], v), r.buf[:0]
	if r.Split != nil {
		r.cmds = r.Split(r.cmds[:0], v)
	}
	for j, cmd := range r.cmds {
		r.buf = append(r.buf, Decision{Instance: r.base + p, Cmd: j, Value: cmd, By: r.by})
	}
	return r.buf
}

// RecordInstance appends, in one row, the decision of every command in the
// value v of instance inst — the one after the last recorded, or any
// instance the first time — learned at at by process by. enq, where the
// proposing leader has it, is when each command was queued: its Elapsed is
// the time from then to at. The hooks are handed at and Elapsed, and the
// log keeps neither. An instance recorded already, or below the first, is
// ignored; one past the next would leave a gap, and panics.
func (r *Recorder) RecordInstance(inst int, v Value, at sim.Time, by node.ID, enq []sim.Time) {
	r.mu.Lock()
	if len(r.log) == 0 {
		r.base, r.by = inst, by
	}
	if next := r.base + len(r.log); inst != next {
		r.mu.Unlock()
		if inst > next {
			panic(fmt.Sprintf("consensus: instance %d recorded while %d is next", inst, next))
		}
		return
	}
	r.log = append(r.log, row{v: v})
	ds := r.cut(len(r.log) - 1)
	r.n += len(ds)
	tell := r.notify[:len(r.notify):len(r.notify)]
	var told []Decision
	if len(tell) > 0 {
		told = slices.Clone(ds) // ds is the next cut's
		for j := range told {
			told[j].At = at
			if j < len(enq) {
				told[j].Elapsed = at.Sub(enq[j])
			}
		}
	}
	r.mu.Unlock()
	for _, d := range told {
		for _, fn := range tell {
			fn(d)
		}
	}
}

// Get returns the first command's decision for an instance, if learned —
// the whole decision for unbatched values.
func (r *Recorder) Get(instance int) (Decision, bool) { return r.GetCmd(instance, 0) }

// GetCmd returns the decision for one command slot of an instance, if learned.
func (r *Recorder) GetCmd(instance, cmd int) (Decision, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := instance - r.base; uint(p) < uint(len(r.log)) {
		if ds := r.cut(p); uint(cmd) < uint(len(ds)) {
			return ds[cmd], true
		}
	}
	return Decision{}, false
}

// Value returns an instance's value exactly as it was decided — a batch
// envelope whole, a lone command that begins with the batch marker still in
// its envelope — or false for an instance not recorded.
func (r *Recorder) Value(inst int) (Value, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := inst - r.base; uint(p) < uint(len(r.log)) {
		return r.log[p].v, true
	}
	return NoValue, false
}

// Count returns how many commands this process has decided (equals the
// instance count when nothing is batched).
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// All returns the decisions in instance order (copy).
func (r *Recorder) All() []Decision {
	out := make([]Decision, 0, r.Count())
	r.Each(func(d Decision) { out = append(out, d) })
	return out
}

// Each calls fn with every decision held when it is called, in instance
// order, without copying the log. fn runs outside the recorder's lock.
func (r *Recorder) Each(fn func(d Decision)) {
	r.mu.Lock()
	rows := len(r.log) // a row keeps its place and its decisions once it is there
	r.mu.Unlock()
	var ds []Decision
	for p := 0; p < rows; p++ {
		r.mu.Lock()
		ds = append(ds[:0], r.cut(p)...)
		r.mu.Unlock()
		for _, d := range ds {
			fn(d)
		}
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
	// Crashed is read by nothing: CheckSafety checks safety only, no
	// liveness, so a decision a crashed process never made needs no excuse.
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
// the same batch envelope. A slot was decided first by the first recorder
// in id order that holds it, and every other decision of it is held to
// that one.
func CheckSafety(in SafetyInput) SafetyReport {
	rep := SafetyReport{Agreement: true, Validity: true}
	for id, r := range in.Recorders {
		if r == nil {
			continue
		}
		r.Each(func(d Decision) {
			rep.TotalDecisions++
			for _, first := range in.Recorders[:id] {
				if first == nil {
					continue
				}
				if prev, ok := first.GetCmd(d.Instance, d.Cmd); ok {
					if prev.Value != d.Value {
						rep.Agreement = false
						rep.Violations = append(rep.Violations, fmt.Sprintf(
							"instance %d cmd %d: p%d decided %q but %q was decided elsewhere", d.Instance, d.Cmd, id, d.Value, prev.Value))
					}
					return
				}
			}
			if d.Cmd == 0 { // an instance counts once, at its first command
				rep.Instances++
			}
			// Noop is the gap filler, proposed by the protocol itself.
			if in.Proposed != nil && d.Value != Noop && !slices.Contains(in.Proposed[d.Instance], d.Value) {
				rep.Validity = false
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"instance %d cmd %d: decided %q was never proposed", d.Instance, d.Cmd, d.Value))
			}
		})
	}
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
