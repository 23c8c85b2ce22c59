package node

import "strings"

// arenaChunk is how many bytes of strings share one allocation in an Arena
// at most: ~900 of the benchmark's 70-byte commands. The first chunk is
// arenaFirst bytes, or the first string's if that is more, and each after it
// twice the last up to arenaChunk, as a Slab's chunks of boxes double: an
// arena that cuts a few strings costs a few hundred bytes, not a whole
// chunk.
const arenaChunk, arenaFirst = 64 << 10, 512

// Arena cuts strings for a decoder or a proposer that makes one after
// another from chunks they share: one allocation per chunk instead of one
// per string. It is append-only, the string-level sibling of Slab: a byte is
// written once and never rewound or reused, and a full chunk is abandoned to
// the garbage collector, which frees it when the last string cut from it
// dies. So a string handed out is never written again, and one string kept
// alive keeps its chunk alive with it. A string of more than an eighth of a
// chunk is allocated on its own rather than strand the rest of the chunk it
// does not fit in. The first chunk is allocated by the first Grow.
//
// An Arena belongs to one goroutine; the strings it hands out may be read
// from any goroutine they are passed to.
type Arena struct {
	chunk, own strings.Builder
	cur        *strings.Builder // what the string being cut is written to
	at         int              // and where in it that string begins
}

// Grow begins a string of n bytes and returns where to write it: exactly n
// bytes, before the Cut that returns them.
func (a *Arena) Grow(n int) *strings.Builder {
	a.cur = &a.chunk
	switch {
	case n > arenaChunk/8:
		a.own.Reset() // lets go of the last one without touching it
		a.own.Grow(n)
		a.cur = &a.own
	case a.chunk.Cap()-a.chunk.Len() < n:
		size := min(max(arenaFirst, 2*a.chunk.Cap(), n), arenaChunk)
		a.chunk.Reset()
		a.chunk.Grow(size)
	}
	a.at = a.cur.Len()
	return a.cur
}

// Cut returns the string written since Grow.
func (a *Arena) Cut() string { return a.cur.String()[a.at:] }

// Copy returns b as a string cut from the arena: it shares nothing with b.
func (a *Arena) Copy(b []byte) string {
	a.Grow(len(b)).Write(b)
	return a.Cut()
}
