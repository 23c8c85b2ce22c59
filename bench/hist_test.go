package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile is the reference: the value at rank q*n of the sorted
// samples.
func exactQuantile(sorted []int64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func TestHistQuantilesWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h, left, right hist
	samples := make([]int64, 0, 200000)
	for i := 0; i < cap(samples); i++ {
		// Log-normal around 1ms with a heavy tail, in ns: the shape of
		// the latencies the benchmark records.
		v := int64(math.Exp(rng.NormFloat64()*1.2 + math.Log(1e6)))
		samples = append(samples, v)
		h.record(v)
		if i%2 == 0 {
			left.record(v)
		} else {
			right.record(v)
		}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	left.merge(&right)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		want := exactQuantile(samples, q)
		for name, got := range map[string]float64{"whole": h.quantile(q), "merged": left.quantile(q)} {
			if rel := math.Abs(got-want) / want; rel > 0.01 {
				t.Errorf("%s q=%v: got %.0f, exact %.0f, off by %.2f%%", name, q, got, want, 100*rel)
			}
		}
	}
	if h.max != samples[len(samples)-1] || h.n != uint64(len(samples)) {
		t.Errorf("max %d count %d, want %d %d", h.max, h.n, samples[len(samples)-1], len(samples))
	}
}

func TestHistBucketsTileTheRange(t *testing.T) {
	prevEnd := int64(0)
	for idx := 0; idx < 40*subCount; idx++ {
		lo, width := bucketBounds(idx)
		if lo != prevEnd {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", idx, lo, prevEnd)
		}
		if bucketOf(lo) != idx || bucketOf(lo+width-1) != idx {
			t.Fatalf("bucket %d [%d,%d) does not hold its own ends", idx, lo, lo+width)
		}
		prevEnd = lo + width
	}
	var empty hist
	if empty.quantile(0.5) != 0 {
		t.Error("empty histogram should read 0")
	}
}
