// Package loop is the event loop of the live runtimes, written once: the
// mailbox a process's goroutine sleeps on, the drain loop that cuts what
// it finds there into turns, and the table of named timers that feed it.
// A transport station — a process — runs one, feeding its node.Proc;
// node.World, the simulator, needs none: there every event is a turn.
package loop

import "sync"

// MaxTurn bounds how many events one turn handles. What an automaton
// sends during a turn waits for the turn's end, so the bound is what
// keeps that wait at microseconds when a backlog has built up: a drain
// that finds more is cut into several turns.
const MaxTurn = 128

// Mailbox is an unbounded FIFO ring buffer with a wake-up channel. Senders
// never block (deliveries and timer callbacks originate in arbitrary
// goroutines, so a bounded channel could deadlock the node loop); the
// consumer waits on C and empties the ring with drain — one lock
// acquisition per turn, not per event. Drained slots are zeroed so the
// mailbox never retains references to consumed events.
type Mailbox[T any] struct {
	mu     sync.Mutex
	ring   []T // oldest at head, newest at (head+count-1) mod len
	head   int
	count  int
	closed bool

	// C receives a token whenever the mailbox may have items. It has
	// capacity 1: a pending token means "check again", which is enough
	// for a single consumer.
	C chan struct{}
}

// NewMailbox returns an empty mailbox.
func NewMailbox[T any]() *Mailbox[T] {
	return &Mailbox[T]{C: make(chan struct{}, 1)}
}

// Push appends an event and wakes the consumer. Events pushed after Close
// are dropped.
func (m *Mailbox[T]) Push(e T) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.put(e)
	m.mu.Unlock()
	m.wake()
}

// PushAll appends events in order under one lock acquisition and wakes the
// consumer once, so a consumer that was asleep finds them all in one drain:
// what a socket read decoded together is handled as one turn (or, past
// MaxTurn, as consecutive ones). The slice stays the caller's.
func (m *Mailbox[T]) PushAll(es []T) {
	if len(es) == 0 {
		return
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	for _, e := range es {
		m.put(e)
	}
	m.mu.Unlock()
	m.wake()
}

// put appends one event; the caller holds the lock.
func (m *Mailbox[T]) put(e T) {
	if m.count == len(m.ring) {
		m.grow()
	}
	m.ring[(m.head+m.count)%len(m.ring)] = e
	m.count++
}

func (m *Mailbox[T]) wake() {
	select {
	case m.C <- struct{}{}:
	default:
	}
}

// grow doubles the ring, unwrapping it so head returns to zero.
func (m *Mailbox[T]) grow() {
	next := make([]T, max(16, 2*len(m.ring)))
	for i := 0; i < m.count; i++ {
		next[i] = m.ring[(m.head+i)%len(m.ring)]
	}
	m.ring = next
	m.head = 0
}

// drain moves up to limit pending events to dst in FIFO order, zeroing
// the vacated slots. It takes the lock once however many events are
// pending; callers reuse dst across turns.
func (m *Mailbox[T]) drain(dst []T, limit int) []T {
	var zero T
	m.mu.Lock()
	n := min(m.count, limit)
	for i := 0; i < n; i++ {
		idx := (m.head + i) % len(m.ring)
		dst = append(dst, m.ring[idx])
		m.ring[idx] = zero
	}
	if m.count -= n; m.count == 0 {
		m.head = 0
	} else {
		m.head = (m.head + n) % len(m.ring)
	}
	m.mu.Unlock()
	return dst
}

// Close marks the mailbox closed, discards what is pending, and wakes the
// consumer so it can exit.
func (m *Mailbox[T]) Close() {
	m.mu.Lock()
	m.closed = true
	m.ring = nil
	m.head = 0
	m.count = 0
	m.mu.Unlock()
	m.wake()
}

// Closed reports whether Close was called.
func (m *Mailbox[T]) Closed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Run is the node loop; it returns when the mailbox closes. Each wake-up
// drains the mailbox in turns of at most MaxTurn events: every event of a
// turn goes to dispatch, then endTurn runs once — where the runtime gives
// its automaton the end-of-turn signal (node.TurnEnd) and only then puts
// what the automaton sent on the network.
func Run[T any](m *Mailbox[T], dispatch func(T), endTurn func()) {
	var zero T
	var turn []T
	for range m.C {
		for {
			turn = m.drain(turn[:0], MaxTurn)
			if len(turn) == 0 {
				break
			}
			for i := range turn {
				dispatch(turn[i])
				turn[i] = zero // do not retain messages until the next turn
			}
			endTurn()
		}
		if m.Closed() {
			return
		}
	}
}
