package telemetry

import (
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/sim"
)

// TestGroupSeries checks per-group decision histograms and lease gauges
// land in their own labeled series and still roll up into the cluster-wide
// totals.
func TestGroupSeries(t *testing.T) {
	c := New(3)
	recs := []*consensus.Recorder{consensus.NewRecorder(), consensus.NewRecorder()}
	leases := []LeaseProbe{
		func() (bool, uint64, uint64) { return true, 7, 1 },
		func() (bool, uint64, uint64) { return false, 2, 0 },
	}
	for g, r := range recs {
		Attach(c, c, g, Process{ID: 0, Recorder: r, Lease: leases[g]})
	}

	at := sim.At(time.Second)
	recs[0].RecordInstance(0, "a", at, 0, []sim.Time{at - sim.At(time.Millisecond)})
	recs[1].RecordInstance(0, "b", at, 1, []sim.Time{at - sim.At(2*time.Millisecond)})
	recs[1].RecordInstance(1, "c", at, 1, []sim.Time{at - sim.At(3*time.Millisecond)})

	if got := c.Decides(); got != 3 {
		t.Fatalf("cluster-wide decides = %d, want 3", got)
	}
	if ids := c.GroupIDs(); len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("GroupIDs = %v", ids)
	}
	if s := c.GroupHist(0); s.Count != 1 {
		t.Fatalf("group 0 decision count = %d, want 1", s.Count)
	}
	if s := c.GroupHist(1); s.Count != 2 {
		t.Fatalf("group 1 decision count = %d, want 2", s.Count)
	}
	if s := c.GroupHist(9); s.Count != 0 {
		t.Fatalf("unknown group decision count = %d, want 0", s.Count)
	}
	if got, _, _ := c.Lease(0); got != 1 {
		t.Fatalf("group 0 lease holders = %d, want 1", got)
	}
	if got, _, _ := c.Lease(1); got != 0 {
		t.Fatalf("group 1 lease holders = %d, want 0", got)
	}

	var b strings.Builder
	c.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`rsm_group_decision_latency_seconds_count{group="0"} 1`,
		`rsm_group_decision_latency_seconds_count{group="1"} 2`,
		`rsm_group_lease_held{group="0"} 1`,
		`rsm_group_lease_held{group="1"} 0`,
		`rsm_group_reads_local_total{group="0"} 7`,
		`rsm_group_reads_fallback_total{group="1"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestGroupSeriesAbsentWhenUnsharded: an unsharded collector must not emit
// group-labeled families at all.
func TestGroupSeriesAbsentWhenUnsharded(t *testing.T) {
	c := New(3)
	var b strings.Builder
	c.WritePrometheus(&b)
	if strings.Contains(b.String(), "rsm_group_") {
		t.Fatal("unsharded collector emitted group series")
	}
}
