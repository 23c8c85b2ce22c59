package obs

import (
	"time"

	"repro/internal/sim"
)

// What names a protocol-level event: the rare things that happen besides
// messages moving. Each has one source (DESIGN.md "Observability
// pipeline"): the runtimes emit Down, Up and Note themselves, the rest
// come from a hook on the object that knows (detector.History,
// consensus.Recorder, transport.Config.OnFlush, durable.Options) through
// one adapter each in internal/telemetry.
type What uint8

// The event vocabulary. The comment on each says which Event fields it
// sets; Peer is -1 and the others zero where not named.
const (
	// LeaderChange: Proc's Omega output became Peer (-1: no output).
	LeaderChange What = iota + 1
	// Down: Proc crashed.
	Down
	// Up: Proc rejoined with the state a restart leaves it.
	Up
	// Decide: Proc learned one command's decision. Dur is the proposer-side
	// latency (0: unknown here).
	Decide
	// Flush: one vectored write on Proc→Peer of N frames, Bytes of payload.
	Flush
	// WALAppend: Proc's log took a record of Bytes framed bytes.
	WALAppend
	// WALFsync: an fsync of Proc's log took Dur.
	WALFsync
	// WALRecover: Proc's snapshot load and replay took Dur.
	WALRecover
	// Note: Text is a free-form annotation (node.Env.Logf, when the
	// runtime was asked to trace).
	Note
)

var whatNames = [...]string{"?", "leader-change", "down", "up", "decide", "flush", "wal-append", "wal-fsync", "wal-recover", "note"}

// String returns the event's name; the span ring records LeaderChange,
// Down, Up and Note as marks under these names.
func (w What) String() string {
	if int(w) < len(whatNames) {
		return whatNames[w]
	}
	return whatNames[0]
}

// Event is one protocol-level event, passed by value.
type Event struct {
	T     sim.Time
	What  What
	Proc  int
	Peer  int
	Dur   time.Duration
	N     int
	Bytes int
	Text  string
}

// Agreement is the election tracker: fed the LeaderChange, Down and Up
// events of an n-process cluster in time order, it knows whether every
// live process outputs the same live leader. The run starts without
// agreement, so the initial election counts, from time zero; a downtime
// runs from the instant agreement breaks (a crashed leader breaks it at
// the crash, before any survivor's output moves) to the instant it
// re-forms. A crashed process's frozen output neither blocks nor fakes
// agreement, and a rejoined one withholds it until it has an output again.
// Not safe for concurrent use.
type Agreement struct {
	leader []int // each process's last output, -1 for none
	down   []bool
	stable int      // the agreed leader, -1 while there is none
	since  sim.Time // when the current lack of agreement began

	// Changes counts the transitions of a process's output to a leader.
	Changes int
}

// NewAgreement returns a tracker for n processes.
func NewAgreement(n int) *Agreement {
	a := &Agreement{leader: make([]int, n), down: make([]bool, n), stable: -1}
	for i := range a.leader {
		a.leader[i] = -1
	}
	return a
}

// Feed applies e; events it does not track, repeats and out-of-range
// processes change nothing. It reports whether e formed an agreement and
// the downtime that agreement ended — zero when every live process moved
// between leaders in lockstep.
func (a *Agreement) Feed(e Event) (downtime time.Duration, formed bool) {
	if e.Proc < 0 || e.Proc >= len(a.leader) {
		return 0, false
	}
	switch e.What {
	case LeaderChange:
		if a.leader[e.Proc] == e.Peer {
			return 0, false
		}
		a.leader[e.Proc] = e.Peer
		if e.Peer >= 0 {
			a.Changes++
		}
	case Down:
		a.down[e.Proc] = true
	case Up:
		if !a.down[e.Proc] {
			return 0, false
		}
		a.down[e.Proc] = false
		a.leader[e.Proc] = -1
	default:
		return 0, false
	}
	leader := a.common()
	switch {
	case leader >= 0 && a.stable < 0:
		a.stable = leader
		return e.T.Sub(a.since), true
	case leader >= 0 && leader != a.stable:
		a.stable = leader
		return 0, true
	case leader < 0 && a.stable >= 0:
		a.stable, a.since = -1, e.T
	}
	return 0, false
}

// common returns the live leader every live process outputs, or -1.
func (a *Agreement) common() int {
	leader := -1
	for p, l := range a.leader {
		if a.down[p] {
			continue
		}
		if l < 0 || leader >= 0 && l != leader {
			return -1
		}
		leader = l
	}
	if leader >= 0 && leader < len(a.down) && a.down[leader] {
		return -1
	}
	return leader
}

// Leader returns the agreed leader, or -1 while there is none.
func (a *Agreement) Leader() int { return a.stable }

// Open returns when the current lack of agreement began, and whether
// there is one.
func (a *Agreement) Open() (since sim.Time, open bool) { return a.since, a.stable < 0 }
