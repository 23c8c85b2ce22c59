// Package detector defines the Omega failure-detector abstraction shared by
// the paper's core algorithm (internal/core) and the baseline
// implementations (internal/detector/alltoall, internal/detector/source).
//
// Omega, introduced by Chandra, Hadzilacos and Toueg, is the weakest failure
// detector for consensus: each process continuously outputs a single
// process it trusts, and there is a time after which all correct processes
// forever output the same correct process. The reproduced paper asks how
// cheaply (in messages) and under how little link synchrony Omega can be
// implemented.
package detector

import (
	"sync"

	"repro/internal/node"
	"repro/internal/sim"
)

// Omega is an eventual leader election module running as a protocol
// automaton. Leader returns the process currently trusted.
type Omega interface {
	node.Automaton
	// Leader returns the process this module currently trusts.
	Leader() node.ID
	// History returns the recorded sequence of leader changes.
	History() *History
}

// Change is one leader-output transition.
type Change struct {
	At     sim.Time
	Leader node.ID
}

// History records the evolution of a process's Omega output. It is safe
// for concurrent use so live transports can observe it from other
// goroutines.
type History struct {
	mu      sync.Mutex
	changes []Change
	notify  []func(t sim.Time, leader node.ID)
}

// NewHistory returns an empty history.
func NewHistory() *History { return &History{} }

// AddNotify appends a hook invoked after every recorded transition; the
// list only grows, so subscribers do not depend on the order they arrive
// in (telemetry.Attach turns one into the obs event stream). A hook runs
// on the recording goroutine, outside the history's lock; it must not
// block and must be safe for concurrent use if several histories share it.
func (h *History) AddNotify(fn func(t sim.Time, leader node.ID)) {
	if fn == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.notify = append(h.notify, fn)
}

// Record appends a change if the leader differs from the current output.
func (h *History) Record(t sim.Time, leader node.ID) {
	h.mu.Lock()
	if n := len(h.changes); n > 0 && h.changes[n-1].Leader == leader {
		h.mu.Unlock()
		return
	}
	h.changes = append(h.changes, Change{At: t, Leader: leader})
	notify := h.notify[:len(h.notify):len(h.notify)]
	h.mu.Unlock()
	for _, fn := range notify {
		fn(t, leader)
	}
}

// Current returns the present output, or node.None before the first record.
func (h *History) Current() node.ID {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.changes) == 0 {
		return node.None
	}
	return h.changes[len(h.changes)-1].Leader
}

// Changes returns a copy of all transitions.
func (h *History) Changes() []Change {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Change, len(h.changes))
	copy(out, h.changes)
	return out
}

// NumChanges returns how many transitions occurred.
func (h *History) NumChanges() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.changes)
}

// LeaderAt returns the output in force at instant t, or node.None if t
// precedes the first record.
func (h *History) LeaderAt(t sim.Time) node.ID {
	h.mu.Lock()
	defer h.mu.Unlock()
	leader := node.None
	for _, c := range h.changes {
		if c.At > t {
			break
		}
		leader = c.Leader
	}
	return leader
}

// StableSince returns the instant of the last transition and the output it
// installed. Before any record it returns (0, node.None).
func (h *History) StableSince() (sim.Time, node.ID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.changes) == 0 {
		return 0, node.None
	}
	last := h.changes[len(h.changes)-1]
	return last.At, last.Leader
}
