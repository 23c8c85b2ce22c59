package node

import (
	"fmt"
	"slices"
	"testing"
)

// TestSlabNeverHandsOutASlotTwice: the box from the first New still holds
// its value after three chunks' worth of later ones, every box holds its
// own, and no two share a slot.
func TestSlabNeverHandsOutASlotTwice(t *testing.T) {
	type msg struct {
		seq int
		v   string
	}
	var s Slab[msg]
	first := s.New(msg{0, "first"})
	boxes := map[*msg]int{first: 0}
	for i := 1; i <= 3*slabChunk; i++ {
		p := s.New(msg{i, fmt.Sprint("value-", i)})
		if j, dup := boxes[p]; dup {
			t.Fatalf("New #%d returned the slot of New #%d", i, j)
		}
		boxes[p] = i
	}
	if *first != (msg{0, "first"}) {
		t.Fatalf("the first box holds %+v after %d later ones", *first, 3*slabChunk)
	}
	for p, i := range boxes {
		if i > 0 && *p != (msg{i, fmt.Sprint("value-", i)}) {
			t.Fatalf("box %d holds %+v", i, *p)
		}
	}
}

// TestSlabAllocatesPerChunk: a warm slab, its chunks grown from slabFirst
// to slabChunk, costs one allocation per slabChunk boxes — slabChunk if each
// box were allocated alone — and a fresh one's chunks double from slabFirst.
func TestSlabAllocatesPerChunk(t *testing.T) {
	var s Slab[[7]uint64]
	var sizes []int
	for len(sizes) < 6 {
		if s.New([7]uint64{}); len(s.free) == s.last-1 { // the box began a chunk
			sizes = append(sizes, s.last)
		}
	}
	if want := []int{slabFirst, 8, 16, 32, slabChunk, slabChunk}; !slices.Equal(sizes, want) {
		t.Fatalf("chunks of %v boxes, want %v", sizes, want)
	}
	got := testing.AllocsPerRun(10, func() {
		for i := 0; i < slabChunk; i++ {
			s.New([7]uint64{uint64(i)})
		}
	})
	if got != 1 {
		t.Fatalf("%d boxes of a warm slab cost %.0f allocations, want one chunk", slabChunk, got)
	}
}
