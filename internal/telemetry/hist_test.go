package telemetry

import (
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(2)
	h.Record(0, 0)
	h.Record(0, 1)              // bucket 1: [1,2)
	h.Record(1, 3)              // bucket 2: [2,4)
	h.Record(1, 1024)           // bucket 11: [1024, 2048)
	h.Record(3, 1025)           // shard 3%2=1
	h.Record(0, -5*time.Second) // clamped to 0
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[2] != 1 || s.Buckets[11] != 2 {
		t.Fatalf("bucket layout wrong: %v", s.Buckets[:12])
	}
	if s.Max != 1025 {
		t.Fatalf("max = %v, want 1025ns", s.Max)
	}
	if s.Sum != 0+1+3+1024+1025 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1)
	for i := 0; i < 90; i++ {
		h.Record(0, time.Millisecond) // bucket 20 (2^20ns ≈ 1.05ms upper)
	}
	for i := 0; i < 10; i++ {
		h.Record(0, time.Second)
	}
	s := h.Snapshot()
	p50, p99 := s.Quantile(0.5), s.Quantile(0.99)
	// Power-of-two buckets: quantiles are exact to within a factor of two.
	if p50 < time.Millisecond/2 || p50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v, want ~1ms", p50)
	}
	if p99 < time.Second/2 || p99 > 2*time.Second {
		t.Fatalf("p99 = %v, want ~1s", p99)
	}
	if got := s.Quantile(1.0); got != s.Max {
		t.Fatalf("p100 = %v, want max %v", got, s.Max)
	}
	if (HistSnapshot{}).Quantile(0.5) != 0 {
		t.Fatal("empty snapshot quantile should be 0")
	}
}

// TestHistogramRecordZeroAlloc is the allocation contract the telemetry
// layer promises: recording costs no heap allocation, ever.
func TestHistogramRecordZeroAlloc(t *testing.T) {
	h := NewHistogram(4)
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Record(2, 137*time.Microsecond)
	}); allocs != 0 {
		t.Fatalf("Record allocates %v per op, want 0", allocs)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(0, time.Duration(i))
	}
}

func BenchmarkHistogramRecordParallel(b *testing.B) {
	h := NewHistogram(8)
	b.ReportAllocs()
	var shard int64
	b.RunParallel(func(pb *testing.PB) {
		s := int(shard) % 8
		shard++
		d := time.Microsecond
		for pb.Next() {
			h.Record(s, d)
			d += 17
		}
	})
}
