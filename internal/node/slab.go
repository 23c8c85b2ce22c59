package node

// slabChunk is how many values a Slab allocates at once. At 32 a chunk of
// the largest message boxed this way (rsm's 56-byte ACCEPT) is 1,792 bytes,
// a size class of its own; at 64 it would round up to 4 KiB and hold more
// heap than the allocations it saves are worth.
const slabChunk = 32

// Slab boxes T values for a sender or a decoder that hands out a message of
// one kind after another: it allocates slabChunk of them at a time and cuts
// each box from the current chunk, one allocation per chunk instead of one
// per value. It is append-only, the struct-level sibling of Arena: a slot is handed out once and never rewound or reused, and a
// full chunk is abandoned to the garbage collector, which frees it when the
// last pointer into it dies. So a box is never written again once New has
// returned it — which is what lets n−1 receivers of one broadcast share it —
// and one box kept alive keeps its chunk, and whatever the chunk's other
// values point to, alive with it.
//
// A Slab belongs to one goroutine; the boxes it hands out may be read from
// any goroutine the sender passes them to.
type Slab[T any] struct{ free []T }

// New returns a box holding v, in a slot no other New has returned.
func (s *Slab[T]) New(v T) *T {
	if len(s.free) == 0 {
		s.free = make([]T, slabChunk)
	}
	p := &s.free[0]
	*p, s.free = v, s.free[1:]
	return p
}
