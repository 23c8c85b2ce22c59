package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestRunCrashPlanMem also writes -metrics-out and reads it back: the file
// is the collector's one export, so it must hold every histogram family an
// exposition has, and the leader the survivors agreed on after the crash.
func TestRunCrashPlanMem(t *testing.T) {
	out := filepath.Join(t.TempDir(), "metrics", "crash.prom")
	if err := run([]string{"-plan", "crash", "-n", "3", "-commands", "2", "-bound", "20s", "-metrics-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	var empty strings.Builder
	telemetry.New(3).WritePrometheus(&empty)
	families := 0
	for _, line := range strings.Split(empty.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") && strings.HasSuffix(line, " histogram") {
			families++
			if !strings.Contains(got, line+"\n") {
				t.Errorf("-metrics-out lacks %q", line)
			}
		}
	}
	if families == 0 {
		t.Fatal("an exposition lists no histogram family")
	}
	if strings.Contains(got, "\nomega_leader -1\n") || !strings.Contains(got, "\nomega_leader ") {
		t.Errorf("-metrics-out has no agreed leader:\n%s", got)
	}
}

func TestRunFullPlanMem(t *testing.T) {
	if err := run([]string{"-plan", "full", "-n", "5", "-commands", "2", "-bound", "20s"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunRecoveryPlanMem is the CI recovery soak over TCP: kill -9 the
// leader mid-batch, restart it in place from its WAL directory, and
// require rejoin, catch-up, renewed proposer eligibility, and replay
// equivalence. It stays enabled under -short so the -race CI job always
// runs it.
func TestRunRecoveryPlanMem(t *testing.T) {
	if err := run([]string{
		"-plan", "recovery", "-n", "3",
		"-commands", "2", "-bound", "30s", "-fsync", "group",
		"-wal-dir", t.TempDir(),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunChaosPlanMem(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos plan waits out a wall-clock GST")
	}
	if err := run([]string{"-plan", "chaos", "-n", "3", "-gst", "400ms", "-commands", "2", "-bound", "20s"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := map[string][]string{
		"unknown plan":      {"-plan", "mayhem"},
		"partition needs 5": {"-plan", "partition", "-n", "3"},
		"crash needs 3":     {"-plan", "crash", "-n", "2"},
		"no -groups flag":   {"-plan", "recovery", "-n", "3", "-groups", "2"},
	}
	for name, args := range cases {
		err := run(args)
		if err == nil {
			t.Fatalf("%s: accepted %v", name, args)
		}
		if strings.Contains(err.Error(), "timed out") {
			t.Fatalf("%s: ran instead of rejecting: %v", name, err)
		}
		if name != "unknown plan" {
			continue
		}
		for _, plan := range []string{"crash", "partition", "chaos", "full", "recovery"} {
			if !strings.Contains(err.Error(), plan) {
				t.Errorf("%s: %q does not name the %s plan", name, err, plan)
			}
		}
	}
}
