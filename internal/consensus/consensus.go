// Package consensus holds the types shared by the consensus protocols in
// this repository — the paper's leader-driven, communication-efficient
// protocol as a replicated log (internal/consensus/rsm), and the classic
// rotating-coordinator baseline (internal/consensus/ct) — together with
// ballot arithmetic and a
// safety checker (agreement, validity, integrity) used by tests and
// experiments.
package consensus

import (
	"fmt"
	"math"
	"slices"
	"sort"
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

// row is what a Recorder keeps of one decided instance: its value alone, 16
// bytes. Which command slots it holds is its key: a row of a dense log is
// instance base+p, its commands cut from v on read; a row of a keyed log
// says so in keys[p].
type row struct {
	v Value
}

// key names the command slots of a row of a keyed log: the instance, the
// first command's index and the count. A count other than one is cut from
// the row's value on read; a row of one command holds the command itself.
type key struct {
	inst   int
	cmd, n int32
}

// Recorder collects the decisions one process learns. It is safe for
// concurrent use so live transports can observe it.
//
// The commands batched into an instance share its number and its bytes, so
// there is one row per instance, in learning order, cut into a Decision per
// command on read. While every row has come from RecordInstance at the next
// instance — how rsm's applier records — the log is dense: row p is instance
// base+p, it keeps the value exactly as decided, and a lookup is a
// subtraction. The first row that breaks that — a Record, a gap, an older
// instance — gives every row a key, and from then on a lookup is a binary
// search by (instance, first command): of the keys themselves while they
// arrive in that order, and of sorted, an index built when the first one does
// not — exact for any input, sized by nothing but the rows. The learner is
// the Recorder's own: the first record names it. When a decision was learned
// (At) and, where only the proposing leader knows it, how long it took
// (Elapsed) are handed to the hooks and not kept: a decision read back has
// neither, as agreement and validity are about values alone.
type Recorder struct {
	// Split, set before anything is recorded, appends the commands in an
	// instance's value to cmds, in order; without it a value is one command.
	Split  func(cmds []Value, v Value) []Value
	mu     sync.Mutex
	log    []row
	base   int     // the instance of log[0] while the log is dense
	keys   []key   // per row; nil while the log is dense
	sorted []int32 // empty while the keys are in order
	n      int     // decisions in log
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

// key returns row p's key (lock held). A dense row's count is not kept: it
// reads -1, cut from the value.
func (r *Recorder) key(p int) key {
	if r.keys == nil {
		return key{inst: r.base + p, n: -1}
	}
	return r.keys[p]
}

// cut returns the decisions of row w, keyed k, good until the next cut; the
// caller holds the lock. A row not yet added is cut to find out what it
// holds.
func (r *Recorder) cut(w row, k key) []Decision {
	r.cmds, r.buf = append(r.cmds[:0], w.v), r.buf[:0]
	if k.n != 1 && r.Split != nil {
		r.cmds = r.Split(r.cmds[:0], w.v)
	}
	for j, cmd := range r.cmds {
		r.buf = append(r.buf, Decision{Instance: k.inst, Cmd: int(k.cmd) + j, Value: cmd, By: r.by})
	}
	return r.buf
}

// learner names the process whose decisions these are, by the first record
// (lock held).
func (r *Recorder) learner(by node.ID) {
	if len(r.log) == 0 {
		r.by = by
	}
}

// index gives every row of a dense log its key (lock held): the log is about
// to take a row that breaks its density. A row of one command is unwrapped,
// as a keyed row of one command holds it: a lone command that begins with
// the batch marker rides in an envelope, and cut would split the bare
// command as if it were one.
func (r *Recorder) index() {
	r.keys = make([]key, len(r.log), 2*len(r.log)+1)
	for p := range r.keys {
		ds := r.cut(r.log[p], key{n: -1})
		r.keys[p] = key{inst: r.base + p, n: int32(len(ds))}
		if len(ds) == 1 {
			r.log[p].v = ds[0].Value
		}
	}
}

// rank returns the place in the log of the i-th row in (instance, first
// command) order (lock held).
func (r *Recorder) rank(i int) int {
	if len(r.sorted) == 0 {
		return i
	}
	return int(r.sorted[i])
}

// find returns the place in a keyed log of the row that holds a command
// slot's decision, or -1, and how many rows sort at or before the slot: the
// last of them is the only one that can hold it, and a row for it goes after
// them. The caller holds the lock.
func (r *Recorder) find(inst, cmd int) (p, i int) {
	i = sort.Search(len(r.keys), func(i int) bool {
		k := &r.keys[r.rank(i)]
		return k.inst > inst || k.inst == inst && int(k.cmd) > cmd
	})
	if i > 0 {
		if p = r.rank(i - 1); r.keys[p].inst == inst && uint(cmd-int(r.keys[p].cmd)) < uint(r.keys[p].n) {
			return p, i
		}
	}
	return -1, i
}

// add appends w, which holds n decisions — keyed k as the i-th row in
// (instance, first command) order once the log is keyed — (lock held).
func (r *Recorder) add(w row, k key, i, n int) {
	if r.keys != nil {
		if len(r.sorted) == 0 && i < len(r.keys) { // the first key out of order: index them all
			r.sorted = make([]int32, len(r.keys), 2*len(r.keys)+1)
			for p := range r.sorted {
				r.sorted[p] = int32(p)
			}
		}
		if len(r.sorted) > 0 {
			r.sorted = slices.Insert(r.sorted, i, int32(len(r.keys)))
		}
		r.keys = append(r.keys, k)
	}
	r.log = append(r.log, w)
	r.n += n
}

// Record stores the first decision for a command slot, and hands it to the
// hooks as it came, At and Elapsed included; later records for the same
// (instance, cmd) are ignored (integrity is checked elsewhere).
func (r *Recorder) Record(d Decision) {
	r.mu.Lock()
	if r.keys == nil {
		r.index()
	}
	var notify []func(Decision)
	if p, i := r.find(d.Instance, d.Cmd); p < 0 {
		r.learner(d.By)
		r.add(row{v: d.Value}, key{inst: d.Instance, cmd: int32(d.Cmd), n: 1}, i, 1)
		notify = r.notify[:len(r.notify):len(r.notify)]
	}
	r.mu.Unlock()
	for _, fn := range notify {
		fn(d)
	}
}

// RecordInstance stores, in one row, the decision of every command in an
// instance's decided value v, learned at at by process by. enq, where the
// proposing leader has it, is when each command was queued: its Elapsed is
// the time from then to at. The hooks are handed at and Elapsed, and the log
// keeps neither. Command slots recorded already are ignored.
func (r *Recorder) RecordInstance(inst int, v Value, at sim.Time, by node.ID, enq []sim.Time) {
	r.mu.Lock()
	r.learner(by)
	if r.keys == nil && len(r.log) > 0 && inst != r.base+len(r.log) {
		r.index() // a gap or an older instance
	}
	w, k := row{v: v}, key{inst: inst, n: -1}
	ds := r.cut(w, k)
	tell := r.notify[:len(r.notify):len(r.notify)]
	if r.keys == nil {
		if len(r.log) == 0 {
			r.base = inst
		}
		r.add(w, k, 0, len(ds))
	} else if _, i := r.find(inst, math.MaxInt); i == 0 || r.keys[r.rank(i-1)].inst != inst {
		if k.n = int32(len(ds)); k.n == 1 {
			w.v = ds[0].Value // a lone command, out of its envelope if it came in one
		}
		r.add(w, k, i, len(ds))
	} else {
		tell = []func(Decision){r.Record} // the instance has rows: slot by slot
	}
	if ds = nil; len(tell) > 0 {
		ds = slices.Clone(r.buf) // buf is the next cut's
		for j := range ds {
			ds[j].At = at
			if j < len(enq) {
				ds[j].Elapsed = at.Sub(enq[j])
			}
		}
	}
	r.mu.Unlock()
	for _, d := range ds {
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
	p := instance - r.base
	if r.keys != nil {
		p, _ = r.find(instance, cmd)
	}
	if p >= 0 && p < len(r.log) {
		k := r.key(p)
		if ds := r.cut(r.log[p], k); uint(cmd-int(k.cmd)) < uint(len(ds)) {
			return ds[cmd-int(k.cmd)], true
		}
	}
	return Decision{}, false
}

// Value returns an instance's value exactly as it was decided — a batch
// envelope whole, a lone command that begins with the batch marker still in
// its envelope — while the log is dense, as rsm's applier records it. A
// keyed log, whose rows of one command hold the bare command, and an
// instance not recorded answer false.
func (r *Recorder) Value(inst int) (Value, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := inst - r.base; r.keys == nil && uint(p) < uint(len(r.log)) {
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

// All returns the decisions in learning order (copy).
func (r *Recorder) All() []Decision {
	out := make([]Decision, 0, r.Count())
	r.Each(func(d Decision) { out = append(out, d) })
	return out
}

// Each calls fn with every decision held when it is called, in learning
// order, without copying the log. fn runs outside the recorder's lock.
func (r *Recorder) Each(fn func(d Decision)) {
	r.mu.Lock()
	rows := len(r.log) // a row keeps its place and its decisions once it is there
	r.mu.Unlock()
	var ds []Decision
	for p := 0; p < rows; p++ {
		r.mu.Lock()
		ds = append(ds[:0], r.cut(r.log[p], r.key(p))...)
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
	// made it, one row a slot: a Recorder is the slot table, and instances
	// counts them.
	chosen := NewRecorder()
	var instances []int
	for id, r := range in.Recorders {
		if r == nil {
			continue
		}
		r.Each(func(d Decision) {
			rep.TotalDecisions++
			if c, _ := chosen.find(d.Instance, d.Cmd); c >= 0 {
				if prev := chosen.log[c].v; prev != d.Value {
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
