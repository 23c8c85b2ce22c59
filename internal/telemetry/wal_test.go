package telemetry

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestWALHooksFeedHistograms(t *testing.T) {
	c := New(3)
	now := func() sim.Time { return 5 }
	onAppend, onFsync, onRecover := WALHooks(c, 1, now)

	onAppend(17)
	onAppend(40)
	onFsync(3 * time.Millisecond)
	onRecover(8 * time.Millisecond)
	other, _, _ := WALHooks(c, 2, now)
	other(9) // another process shares the merged view

	if ap := c.Hist(WALAppendBytes); ap.Count != 3 || ap.Sum != time.Duration(17+40+9) {
		t.Fatalf("append snapshot = count %d sum %v", ap.Count, ap.Sum)
	}
	if fs := c.Hist(WALFsync); fs.Count != 1 || fs.Max != 3*time.Millisecond {
		t.Fatalf("fsync snapshot = count %d max %v", fs.Count, fs.Max)
	}
	if rc := c.Hist(WALRecovery); rc.Count != 1 || rc.Max != 8*time.Millisecond {
		t.Fatalf("recovery snapshot = count %d max %v", rc.Count, rc.Max)
	}

	var sb strings.Builder
	c.WritePrometheus(&sb)
	for _, metric := range []string{"wal_fsync_seconds", "wal_append_bytes", "wal_recovery_seconds"} {
		if !strings.Contains(sb.String(), metric) {
			t.Fatalf("/metrics output missing %s", metric)
		}
	}
}
