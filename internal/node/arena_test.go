package node

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestArenaNeverRewrites: every string an Arena cut still reads back as it
// was written after three chunks' worth of later ones, strings over an
// eighth of a chunk among them, from a source buffer overwritten each time;
// and a chunk is never grown into a larger copy of itself: a string that
// does not fit in what is left of it starts the next.
func TestArenaNeverRewrites(t *testing.T) {
	var a Arena
	value := func(i int) string {
		if i%97 == 0 {
			return fmt.Sprintf("%06d-%s", i, strings.Repeat("big", arenaChunk/16)) // over an eighth
		}
		return fmt.Sprintf("%06d-%s", i, strings.Repeat(string(rune('a'+i%26)), i%150))
	}
	var kept []string
	buf := make([]byte, 0, arenaChunk)
	for bytes, i := 0, 0; bytes < 3*arenaChunk; i++ {
		buf = append(buf[:0], value(i)...)
		kept = append(kept, a.Copy(buf))
		if a.chunk.Cap() > arenaChunk {
			t.Fatalf("string %d: a chunk of %d bytes, want %d", i, a.chunk.Cap(), arenaChunk)
		}
		clear(buf[:cap(buf)])
		bytes += len(kept[i])
	}
	for i, s := range kept {
		if s != value(i) {
			t.Fatalf("string %d of %d reads back as %.40q", i, len(kept), s)
		}
	}
}

// TestArenaAllocatesPerChunk: a chunk's worth of small strings costs one
// allocation, built in place or copied, and one over an eighth of a chunk
// costs its own and leaves the chunk it did not fit in to the next one.
func TestArenaAllocatesPerChunk(t *testing.T) {
	var a Arena
	small := []byte(strings.Repeat("s", 64))
	got := testing.AllocsPerRun(10, func() {
		for i := 0; i < arenaChunk/len(small)/2; i++ {
			a.Copy(small)
			b := a.Grow(len(small))
			b.WriteString("x")
			b.Write(small[1:])
			a.Cut()
		}
	})
	if got != 1 {
		t.Fatalf("%d bytes of strings cost %.0f allocations, want one chunk", arenaChunk, got)
	}
	big := []byte(strings.Repeat("b", arenaChunk/8+1))
	a.Copy(small) // a fresh chunk, almost all of it free
	room := a.chunk.Cap() - a.chunk.Len()
	if got := testing.AllocsPerRun(10, func() { a.Copy(big) }); got != 1 || a.chunk.Cap()-a.chunk.Len() != room {
		t.Fatalf("a %d-byte string costs %.0f allocations and %d bytes of the chunk, want 1 and 0", len(big), got, room-(a.chunk.Cap()-a.chunk.Len()))
	}
}

// TestArenaStartsSmall: a fresh Arena that cuts one short string costs less
// than a KiB, not a whole chunk, and its chunks double from arenaFirst to
// arenaChunk as it cuts more.
func TestArenaStartsSmall(t *testing.T) {
	const arenas = 100
	kept := make([]string, arenas)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range kept {
		kept[i] = new(Arena).Copy([]byte("a short string"))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / arenas; per >= 1<<10 {
		t.Fatalf("a fresh arena cutting one short string allocates %d bytes, want under 1 KiB", per)
	}
	var a Arena
	var sizes []int
	for i := 0; len(sizes) < 10; i++ {
		if a.Copy([]byte(fmt.Sprintf("%070d", i))); a.chunk.Len() == 70 { // the string began a chunk
			sizes = append(sizes, a.chunk.Cap())
		}
	}
	if want := []int{512, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 64 << 10, 64 << 10}; !slices.Equal(sizes, want) {
		t.Fatalf("chunks of %v bytes, want %v", sizes, want)
	}
}
