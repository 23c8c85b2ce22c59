package metrics

import (
	"encoding/binary"
	"sort"

	"repro/internal/sim"
)

// chunk is 2 KiB of one sender's consecutive send instants, about 750 sends
// of a busy sender. b holds, as a zig-zag varint each, the difference
// of every instant from the one before it — the first's from first, so
// zero: one byte for a leg of a broadcast, three for a gap of 50 µs to 1 ms,
// four for a heartbeat period. A clock that steps backwards gives a
// negative difference, which is kept as it is.
type chunk struct {
	first sim.Time // the chunk's first instant
	seq   int      // how many sends the sender made before that one
	used  int      // bytes of b in use
	b     [2048 - 24]byte
}

// sendLog is the instants of one sender's last sends, at most window of
// them, oldest first. Only the last chunk is ever written, so a copy of the
// struct with its own list and its own last chunk (what Snapshot takes) is
// a consistent log that shares every full chunk with the one still
// recording.
type sendLog struct {
	window   int
	chunks   []*chunk
	total    int      // sends ever made; all but the last window are evicted
	prev     sim.Time // the newest instant
	lastAt   sim.Time // the latest instant ever, which survives eviction
	unsorted bool     // some instant was earlier than the one before it
}

// add appends a send at t, and drops the oldest chunk once the window has
// moved past all of it.
func (l *sendLog) add(t sim.Time) {
	last := len(l.chunks) - 1
	if last < 0 || len(l.chunks[last].b)-l.chunks[last].used < binary.MaxVarintLen64 {
		l.chunks = append(l.chunks, &chunk{first: t, seq: l.total})
		l.prev = t
		last++
	}
	c := l.chunks[last]
	c.used += binary.PutVarint(c.b[c.used:], int64(t-l.prev))
	l.unsorted = l.unsorted || t < l.prev
	l.prev, l.lastAt = t, max(l.lastAt, t)
	if l.total++; last > 0 && l.chunks[1].seq <= l.evicted() {
		l.chunks[0] = nil // a snapshot has its own list
		l.chunks = l.chunks[1:]
	}
}

// evicted is how many of the sender's sends the window has moved past.
func (l *sendLog) evicted() int { return max(l.total-l.window, 0) }

// each calls fn with the retained instants in chunks, oldest first, until
// fn returns false.
func (l *sendLog) each(chunks []*chunk, fn func(sim.Time) bool) {
	for _, c := range chunks {
		skip := l.evicted() - c.seq // positive in an oldest chunk evicted in part
		for at, b := c.first, c.b[:c.used]; len(b) > 0; skip-- {
			d, w := binary.Varint(b)
			at, b = at+sim.Time(d), b[w:]
			if skip <= 0 && !fn(at) {
				return
			}
		}
	}
}

// before counts the retained instants earlier than t. A sorted log finds
// the one chunk t falls in by its neighbours' first instants and decodes
// only that; an unsorted one is counted through.
func (l *sendLog) before(t sim.Time) (n int) {
	lo, hi := 0, len(l.chunks)
	if !l.unsorted {
		// Chunks from hi on hold nothing before t, those before hi-1 nothing else.
		hi = sort.Search(hi, func(i int) bool { return l.chunks[i].first >= t })
		if lo = max(hi-1, 0); lo < hi {
			n = max(l.chunks[lo].seq-l.evicted(), 0) // retained in the chunks before lo
		}
	}
	l.each(l.chunks[lo:hi], func(at sim.Time) bool {
		if at < t {
			n++
		}
		return at < t || l.unsorted
	})
	return n
}
