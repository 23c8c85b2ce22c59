package main

import "math/bits"

// hist is a log-linear histogram of non-negative int64 samples
// (nanoseconds here): values below 2^subBits land in exact unit buckets,
// larger ones in 2^subBits linear sub-buckets per power of two, so a
// bucket is never wider than 1/128 of its lower bound and a quantile read
// from it is within 1 % of the exact one. Histograms merge by adding
// counts, which is how per-window and per-seed histograms combine.
type hist struct {
	counts []uint64
	n      uint64
	max    int64
}

const (
	subBits  = 7
	subCount = 1 << subBits
)

func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - subBits
	return (shift+1)<<subBits | int(v>>uint(shift))&(subCount-1)
}

// bucketBounds returns the bucket's lowest value and its width.
func bucketBounds(idx int) (lo, width int64) {
	if idx < subCount {
		return int64(idx), 1
	}
	shift := uint(idx>>subBits - 1)
	return int64(subCount|idx&(subCount-1)) << shift, 1 << shift
}

func (h *hist) record(v int64) {
	idx := bucketOf(v)
	if idx >= len(h.counts) {
		grown := make([]uint64, idx+subCount)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[idx]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	if len(o.counts) > len(h.counts) {
		grown := make([]uint64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile, interpolated linearly inside the
// bucket that holds it, so the result moves with the counts instead of
// snapping to bucket edges. An empty histogram reads 0.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for idx, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := bucketBounds(idx)
			v := float64(lo) + float64(width)*(rank-cum)/float64(c)
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v
		}
		cum += float64(c)
	}
	return float64(h.max)
}
