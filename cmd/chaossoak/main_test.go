package main

import (
	"strings"
	"testing"
)

func TestRunCrashPlanMem(t *testing.T) {
	if err := run([]string{"-plan", "crash", "-n", "3", "-commands", "2", "-bound", "20s"}); err != nil {
		t.Fatal(err)
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
