package node

// slabChunk is how many values a Slab allocates at once at most. The first
// chunk is slabFirst values and each after it twice the last, as an Arena's
// chunks grow: a slab that boxes a few messages costs a few boxes, not a
// whole chunk. At 64 a chunk of the largest message boxed this way (rsm's
// 56-byte ACCEPT) rounds up to 4 KiB; larger chunks cost more resident
// memory than the allocations they save, since each slab pins its current
// chunk.
const slabChunk, slabFirst = 64, 4

// Slab boxes T values for a sender or a decoder that hands out a message of
// one kind after another: it allocates a chunk of them at a time, slabFirst
// doubling up to slabChunk, and cuts each box from the current chunk, one
// allocation per chunk instead of one per value. It is append-only, the
// struct-level sibling of Arena: a slot is handed out once and never
// rewound or reused, and a full chunk is abandoned to the garbage
// collector, which frees it when the last pointer into it dies. So a box is never written again once New has
// returned it — which is what lets n−1 receivers of one broadcast share it —
// and one box kept alive keeps its chunk, and whatever the chunk's other
// values point to, alive with it.
//
// A Slab belongs to one goroutine; the boxes it hands out may be read from
// any goroutine the sender passes them to.
type Slab[T any] struct {
	free []T
	last int // the current chunk's size
}

// New returns a box holding v, in a slot no other New has returned.
func (s *Slab[T]) New(v T) *T {
	if len(s.free) == 0 {
		s.last = min(max(slabFirst, 2*s.last), slabChunk)
		s.free = make([]T, s.last)
	}
	p := &s.free[0]
	*p, s.free = v, s.free[1:]
	return p
}
