package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Kernel is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all scheduled callbacks run on the caller's goroutine
// inside Step/Run, which is exactly what makes executions deterministic.
//
// Event slots are recycled through a per-kernel free list, so the
// schedule → fire cycle allocates nothing in steady state; see Handle for
// how stale references to recycled slots stay safe. New slots are cut from
// chunks that double from chunkFirst to chunkMax slots, so a fresh kernel
// that comes to hold n events has made O(log n) allocations for them.
type Kernel struct {
	now  Time
	heap eventHeap
	seq  uint64
	rng  *rand.Rand

	// free is the event slot free list (LIFO for cache locality). A slot
	// never used yet is chunk[minted], the next of the current chunk.
	free   []*Event
	chunk  []Event
	minted int

	// processed counts events that have fired (excluding cancelled ones).
	processed uint64
	// limit aborts runaway simulations; 0 means no limit.
	limit uint64
}

// chunkFirst and chunkMax bound the slots a kernel mints at once: a world
// that holds a few dozen events mints a few dozen, and a busy one makes one
// allocation per chunkMax.
const chunkFirst, chunkMax = 16, 256

// NewKernel returns a kernel whose random source is seeded with seed.
// Two kernels created with the same seed and driven by the same code
// produce identical executions.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: NewRand(seed)}
}

// Reset returns the kernel to the state NewKernel(seed) would produce —
// clock at zero, queue empty, counters cleared, random source reseeded —
// while keeping the event heap's backing array and the slot free list, so
// a harness could reuse one kernel across runs (none does today).
func (k *Kernel) Reset(seed int64) {
	for {
		e := k.heap.Pop()
		if e == nil {
			break
		}
		k.recycle(e, false)
	}
	k.now = TimeZero
	k.seq = 0
	k.processed = 0
	k.limit = 0
	k.rng.Seed(seed)
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. Protocol and link
// models must draw randomness only from here to preserve reproducibility.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Processed returns the number of events that have fired so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// SetEventLimit aborts Run with a panic after n fired events; 0 disables
// the limit. It exists to catch accidental event storms in tests.
func (k *Kernel) SetEventLimit(n uint64) { k.limit = n }

// alloc takes an event slot from the free list, or cuts a new one from the
// current chunk, minting a chunk twice the last one's size when it is used
// up.
func (k *Kernel) alloc() *Event {
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return e
	}
	if k.minted == len(k.chunk) {
		k.chunk, k.minted = make([]Event, min(max(chunkFirst, 2*len(k.chunk)), chunkMax)), 0
	}
	k.minted++
	return &k.chunk[k.minted-1]
}

// recycle retires a popped event's generation and returns its slot to the
// free list. fired records the generation's outcome for Handle queries.
func (k *Kernel) recycle(e *Event, fired bool) {
	e.doneGen, e.doneFired = e.gen, fired
	e.gen++
	e.run = nil
	e.cancelled = false
	k.free = append(k.free, e)
}

// fire advances the clock to e and runs its callback. e must already be
// popped from the heap; its slot is recycled before the callback runs, so
// callbacks that schedule immediately reuse the hot slot.
func (k *Kernel) fire(e *Event) {
	k.now = e.at
	r := e.run
	k.recycle(e, true)
	k.processed++
	if k.limit != 0 && k.processed > k.limit {
		panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", k.limit, k.now))
	}
	r.Run()
}

// Schedule runs fn after virtual duration d (from now). A negative or zero
// d schedules fn for the current instant; it will still run after all
// callbacks already queued for this instant, preserving causal order.
func (k *Kernel) Schedule(d time.Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return k.ScheduleAt(k.now.Add(d), fn)
}

// ScheduleAt runs fn at absolute virtual instant t. Instants in the past
// are clamped to now.
func (k *Kernel) ScheduleAt(t Time, fn func()) Handle {
	if fn == nil {
		panic("sim: ScheduleAt called with nil callback")
	}
	return k.scheduleAt(t, Func(fn))
}

// ScheduleRun runs r after virtual duration d, as Schedule runs a func().
func (k *Kernel) ScheduleRun(d time.Duration, r Runner) Handle {
	return k.scheduleAt(k.now.Add(max(d, 0)), r)
}

func (k *Kernel) scheduleAt(t Time, r Runner) Handle {
	if t < k.now {
		t = k.now
	}
	e := k.alloc()
	e.at, e.seq, e.run = t, k.seq, r
	k.seq++
	k.heap.Push(e)
	return Handle{e: e, gen: e.gen}
}

// Step fires the next event, advancing the clock to its instant. It returns
// false when no events remain. Cancelled events are collected silently.
func (k *Kernel) Step() bool {
	for {
		e := k.heap.Pop()
		if e == nil {
			return false
		}
		if e.cancelled {
			k.recycle(e, false)
			continue
		}
		k.fire(e)
		return true
	}
}

// RunUntil fires events until the virtual clock would pass horizon, until
// the queue drains, or until stop (if non-nil) returns true between events.
// It returns the reason the run ended.
func (k *Kernel) RunUntil(horizon Time, stop func() bool) RunResult {
	for {
		if stop != nil && stop() {
			return RunStopped
		}
		// One pop per event: cancelled events are drained in the same
		// pass, and the survivor is fired directly instead of being
		// re-popped by Step.
		e := k.heap.Pop()
		for e != nil && e.cancelled {
			k.recycle(e, false)
			e = k.heap.Pop()
		}
		if e == nil {
			// Simulate-until semantics: the clock reaches the horizon
			// even when nothing is left to do (except for the "run
			// forever" sentinel, which would wedge the clock at the
			// end of time).
			if horizon != TimeMax && horizon > k.now {
				k.now = horizon
			}
			return RunDrained
		}
		if e.at > horizon {
			// Do not fire past the horizon: put the event back (its seq
			// is unchanged, so ordering is preserved) and advance the
			// clock so repeated RunUntil calls observe monotonic time.
			k.heap.Push(e)
			k.now = horizon
			return RunHorizon
		}
		k.fire(e)
	}
}

// RunFor advances the simulation by virtual duration d.
func (k *Kernel) RunFor(d time.Duration) RunResult {
	return k.RunUntil(k.now.Add(d), nil)
}

// RunResult describes why a Run* call returned.
type RunResult int

// Run termination reasons.
const (
	// RunHorizon means the time horizon was reached.
	RunHorizon RunResult = iota + 1
	// RunDrained means the event queue emptied.
	RunDrained
	// RunStopped means the stop predicate returned true.
	RunStopped
)

// String returns a human-readable name for the result.
func (r RunResult) String() string {
	switch r {
	case RunHorizon:
		return "horizon"
	case RunDrained:
		return "drained"
	case RunStopped:
		return "stopped"
	default:
		return fmt.Sprintf("RunResult(%d)", int(r))
	}
}

// Every schedules fn to run every period, starting after initial delay, and
// returns a Ticker handle to stop the repetition. The callback runs until
// the ticker is stopped or the simulation ends.
func (k *Kernel) Every(initial, period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: Every called with non-positive period")
	}
	t := &Ticker{kernel: k, period: period, fn: fn}
	t.tickFn = t.tick // bound once so re-arming allocates nothing
	t.next = k.Schedule(initial, t.tickFn)
	return t
}

// Ticker repeats a callback at a fixed virtual period.
type Ticker struct {
	kernel  *Kernel
	period  time.Duration
	fn      func()
	tickFn  func()
	next    Handle
	stopped bool
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.next = t.kernel.Schedule(t.period, t.tickFn)
	t.fn()
}

// Stop halts the ticker. It is safe to call repeatedly.
func (t *Ticker) Stop() {
	t.stopped = true
	t.next.Cancel()
	t.next = Handle{}
}

// Stopped reports whether Stop has been called.
func (t *Ticker) Stopped() bool { return t.stopped }
