package sim

// Event is one scheduled callback's slot in the kernel. Slots are owned and
// recycled by the kernel's free list: once an event fires or a cancelled
// event is collected, its slot is reused for a later Schedule call. Code
// outside the kernel never holds an *Event — it holds a Handle, which pins
// the slot's generation so operations through stale handles are no-ops.
type Event struct {
	at        Time
	seq       uint64
	run       Runner
	cancelled bool

	// gen is bumped every time the slot is recycled; a Handle is live only
	// while its generation matches. doneGen/doneFired record the outcome of
	// the most recently completed generation so a handle observed right
	// after completion still answers Fired/Cancelled correctly.
	gen       uint64
	doneGen   uint64
	doneFired bool
}

// Runner is what an event runs when it fires: a plain callback through
// Func, or a record its owner pools, which runs itself and so is scheduled
// without binding a method value to a func() for it.
type Runner interface{ Run() }

// Func is a callback as a Runner.
type Func func()

// Run calls f.
func (f Func) Run() { f() }

// Handle refers to one scheduled callback. The zero Handle is valid and
// refers to nothing; all methods on it are no-ops. Handles stay safe after
// their event completes: the kernel recycles event slots, and a handle
// whose generation no longer matches simply does nothing.
type Handle struct {
	e   *Event
	gen uint64
}

// live reports whether the handle's generation is still current, i.e. the
// event is queued (possibly cancelled but not yet collected).
func (h Handle) live() bool { return h.e != nil && h.e.gen == h.gen }

// Pending reports whether the event is still queued and will fire.
func (h Handle) Pending() bool { return h.live() && !h.e.cancelled }

// Cancel prevents the event from firing. It is safe to call repeatedly,
// after the event has fired, and after the event's slot has been recycled
// for an unrelated callback (the generation check makes it a no-op then).
func (h Handle) Cancel() {
	if !h.Pending() {
		return
	}
	h.e.cancelled = true
	h.e.run = nil // release references for the garbage collector
}

// Cancelled reports whether this handle's event was cancelled before
// firing. Once the event's slot has been reused by a *second* later
// callback the answer degrades to false; Cancel itself is always safe.
func (h Handle) Cancelled() bool {
	if h.e == nil {
		return false
	}
	if h.live() {
		return h.e.cancelled
	}
	return h.e.doneGen == h.gen && !h.e.doneFired
}

// Fired reports whether this handle's event ran, with the same slot-reuse
// caveat as Cancelled.
func (h Handle) Fired() bool {
	if h.e == nil || h.live() {
		return false
	}
	return h.e.doneGen == h.gen && h.e.doneFired
}

// eventHeap is a binary min-heap ordered by (at, seq). The seq tie-break
// guarantees that events scheduled for the same instant fire in scheduling
// order, which keeps simulations deterministic.
type eventHeap struct {
	items []*Event
}

func (h *eventHeap) Len() int { return len(h.items) }

func (h *eventHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }

// Push inserts an event into the heap.
func (h *eventHeap) Push(e *Event) {
	h.items = append(h.items, e)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the earliest event, or nil if the heap is empty.
func (h *eventHeap) Pop() *Event {
	n := len(h.items)
	if n == 0 {
		return nil
	}
	top := h.items[0]
	h.swap(0, n-1)
	h.items[n-1] = nil
	h.items = h.items[:n-1]
	if len(h.items) > 0 {
		h.down(0)
	}
	return top
}

func (h *eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *eventHeap) down(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.less(right, left) {
			smallest = right
		}
		if !h.less(smallest, i) {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
