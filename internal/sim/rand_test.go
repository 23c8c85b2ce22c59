package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestRandMatchesMathRand holds NewRand to math/rand's stream: every draw
// the simulator makes, from seeds at and around the seeding's edges (0,
// the sign, the modulus 2³¹−1 and its neighbours, the int64 extremes), and
// again after both are reseeded in place.
func TestRandMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 2, 42, 89482311, -89482311, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1 << 40, math.MaxInt64, math.MinInt64}
	const draws = 10000
	compare := func(seed int64, got, want *rand.Rand) {
		t.Helper()
		for i := 0; i < draws; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, i, g, w)
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 draw %d = %d, want %d", seed, i, g, w)
			}
			if g, w := got.Int63n(1e9+7), want.Int63n(1e9+7); g != w {
				t.Fatalf("seed %d: Int63n draw %d = %d, want %d", seed, i, g, w)
			}
			if g, w := got.Intn(1000), want.Intn(1000); g != w {
				t.Fatalf("seed %d: Intn draw %d = %d, want %d", seed, i, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d: Float64 draw %d = %v, want %v", seed, i, g, w)
			}
			if g, w := got.Perm(10), want.Perm(10); !slices.Equal(g, w) {
				t.Fatalf("seed %d: Perm draw %d = %v, want %v", seed, i, g, w)
			}
		}
	}
	for _, seed := range seeds {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		compare(seed, got, want)
		got.Seed(seed + 1)
		want.Seed(seed + 1)
		compare(seed+1, got, want)
	}
}

// TestKernelResetReseedsInPlace checks that Reset reseeds the kernel's own
// source, allocating nothing, to the stream a fresh kernel draws.
func TestKernelResetReseedsInPlace(t *testing.T) {
	k := NewKernel(1)
	if allocs := testing.AllocsPerRun(100, func() { k.Reset(7) }); allocs != 0 {
		t.Fatalf("Reset allocates %v times, want 0", allocs)
	}
	want := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		if g, w := k.Rand().Int63(), want.Int63(); g != w {
			t.Fatalf("draw %d after Reset = %d, want %d", i, g, w)
		}
	}
}

// Sinks keep the benchmarks' results on the heap, as a world keeps them.
var (
	benchKernel *Kernel
	benchRand   *rand.Rand
)

// BenchmarkNewKernel is what seeding a world's random source costs: a new
// kernel, NewRand alone, math/rand's own seeding for comparison (NewRand
// should take at most a third of its time, with the same two allocations),
// and the in-place reseed Reset does (0 allocs).
func BenchmarkNewKernel(b *testing.B) {
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchKernel = NewKernel(int64(i))
		}
	})
	b.Run("NewRand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchRand = NewRand(int64(i))
		}
	})
	b.Run("rand.NewSource", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchRand = rand.New(rand.NewSource(int64(i)))
		}
	})
	b.Run("Reset", func(b *testing.B) {
		k := NewKernel(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Reset(int64(i))
		}
	})
}
