package sim

import (
	"math/bits"
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestStaleHandleCancelAfterReuse is the free-list regression test: once an
// event fires and its slot is recycled into a new Schedule, the old handle's
// Cancel must be a generation-checked no-op — it must not kill the new
// event riding the same slot.
func TestStaleHandleCancelAfterReuse(t *testing.T) {
	k := NewKernel(1)
	first := k.Schedule(time.Millisecond, func() {})
	k.RunFor(10 * time.Millisecond)
	if !first.Fired() {
		t.Fatalf("first event did not fire")
	}

	// The free list is LIFO, so this Schedule reuses first's slot.
	fired := false
	second := k.Schedule(time.Millisecond, func() { fired = true })
	first.Cancel() // stale: must not touch the reused slot
	if !second.Pending() {
		t.Fatalf("stale Cancel hit the recycled event")
	}
	k.RunFor(10 * time.Millisecond)
	if !fired {
		t.Fatalf("recycled event did not fire after a stale Cancel")
	}
	if first.Fired() || first.Pending() {
		t.Fatalf("stale handle still reports live state after slot reuse")
	}
}

// TestStaleHandleQueriesAfterReuse pins down what a stale handle may answer:
// after its slot is recycled once, Fired/Cancelled for the completed
// generation still read correctly; after a second reuse they degrade to
// false, never to a wrong "pending".
func TestStaleHandleQueriesAfterReuse(t *testing.T) {
	k := NewKernel(1)
	cancelled := k.Schedule(time.Millisecond, func() {})
	cancelled.Cancel()
	k.RunFor(5 * time.Millisecond)
	if cancelled.Fired() {
		t.Fatalf("cancelled event reports Fired")
	}
	if !cancelled.Cancelled() {
		t.Fatalf("cancelled event lost its Cancelled answer after recycling")
	}
}

// TestKernelResetReproducesRun checks Reset(seed): a reset kernel must
// replay a schedule exactly as a fresh kernel with the same seed would,
// with no events leaking across the reset.
func TestKernelResetReproducesRun(t *testing.T) {
	trace := func(k *Kernel) []int64 {
		var out []int64
		for i := 0; i < 20; i++ {
			d := time.Duration(1+k.Rand().Intn(5)) * time.Millisecond
			k.Schedule(d, func() { out = append(out, int64(k.Now())) })
		}
		k.RunFor(50 * time.Millisecond)
		return out
	}

	k := NewKernel(7)
	// Leave a pending event behind to prove Reset drops it.
	leaked := false
	k.Schedule(time.Hour, func() { leaked = true })
	first := trace(k)

	k.Reset(7)
	if k.Now() != TimeZero {
		t.Fatalf("Reset left the clock at %v", k.Now())
	}
	second := trace(k)

	if len(first) != len(second) {
		t.Fatalf("replay length %d != %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at %d: %d != %d", i, second[i], first[i])
		}
	}
	if leaked {
		t.Fatalf("event scheduled before Reset fired after it")
	}

	fresh := trace(NewKernel(7))
	for i := range fresh {
		if first[i] != fresh[i] {
			t.Fatalf("reset kernel diverged from fresh kernel at %d", i)
		}
	}
}

// TestScheduleSteadyStateAllocs verifies the free list actually removes the
// per-event allocation once the pool is warm.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	k := NewKernel(1)
	fn := func() {}
	k.Schedule(time.Microsecond, fn)
	k.RunFor(time.Millisecond) // warm the free list
	allocs := testing.AllocsPerRun(1000, func() {
		k.Schedule(time.Microsecond, fn)
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Schedule+Step allocates %.1f objects per run, want 0", allocs)
	}
}

// mallocs returns how many heap objects f allocates.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestFreshKernelMintsSlotsInChunks: a fresh kernel that comes to hold
// 1,000 pending events allocates about ⌈log₂ 1,000⌉ times, not once an
// event: its slot chunks double from chunkFirst to chunkMax (seven chunks)
// and the heap's backing array doubles too, so both together stay within
// 2⌈log₂ n⌉. Every event then fires, in order.
func TestFreshKernelMintsSlotsInChunks(t *testing.T) {
	const n = 1000
	k := NewKernel(1)
	var order []int
	fns := make([]func(), n)
	for i := range fns {
		fns[i] = func() { order = append(order, i) }
	}
	got := mallocs(func() {
		for i, fn := range fns {
			k.Schedule(time.Duration(i), fn)
		}
	})
	t.Logf("%d pending events: %d allocations", n, got)
	if bound := 2 * bits.Len(n); got > uint64(bound) {
		t.Fatalf("%d pending events cost %d allocations, want at most %d", n, got, bound)
	}
	order = make([]int, 0, n)
	k.RunFor(time.Second)
	if len(order) != n || !slices.IsSorted(order) {
		t.Fatalf("%d of %d events fired, sorted %v", len(order), n, slices.IsSorted(order))
	}
}
