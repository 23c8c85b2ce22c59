package telemetry

import (
	"strings"
	"testing"
)

func TestLeaseProbeGauges(t *testing.T) {
	c := New(3)
	held := []bool{false, true, false}
	local := []uint64{0, 120, 0}
	fallback := []uint64{2, 3, 1}
	for i := 0; i < 3; i++ {
		i := i
		c.Probe(func() (bool, uint64, uint64) { return held[i], local[i], fallback[i] })
	}
	holders, localReads, fallbackReads := c.Lease()
	if holders != 1 {
		t.Fatalf("lease holders = %d, want 1", holders)
	}
	if localReads != 120 {
		t.Fatalf("local reads = %d, want 120", localReads)
	}
	if fallbackReads != 6 {
		t.Fatalf("fallback reads = %d, want 6", fallbackReads)
	}
	held[1] = false
	if got, _, _ := c.Lease(); got != 0 {
		t.Fatalf("lease holders after release = %d, want 0", got)
	}
}

func TestFlushHookHistograms(t *testing.T) {
	c := New(2)
	flush := FlushHook(c)
	flush(0, 1, 8, 1024)
	flush(1, 0, 32, 4096)
	frames := c.Hist(FlushFrames)
	if frames.Count != 2 {
		t.Fatalf("flush frames count = %d, want 2", frames.Count)
	}
	if got := int64(frames.Sum); got != 40 {
		t.Fatalf("flush frames sum = %d, want 40", got)
	}
	if got := int64(frames.Max); got != 32 {
		t.Fatalf("flush frames max = %d, want 32", got)
	}
	bytes := c.Hist(FlushBytes)
	if got := int64(bytes.Sum); got != 5120 {
		t.Fatalf("flush bytes sum = %d, want 5120", got)
	}
}

func TestPrometheusExportsLeaseAndFlush(t *testing.T) {
	c := New(2)
	c.Probe(func() (bool, uint64, uint64) { return true, 7, 1 })
	FlushHook(c)(0, 1, 8, 1024)
	var b strings.Builder
	c.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"rsm_lease_held 1",
		"rsm_reads_local_total 7",
		"rsm_reads_fallback_total 1",
		// Count-unit buckets: le in frames, not seconds. 8 frames land in
		// the half-open bucket [8,16), so the cumulative count first hits
		// 1 at le="16".
		`link_flush_frames_bucket{le="16"} 1`,
		"link_flush_frames_sum 8",
		"link_flush_bytes_sum 1024",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}
