package main

import (
	"testing"
	"time"

	"repro/internal/faultline"
)

func TestParseCrashes(t *testing.T) {
	plan, err := parseCrashes("0@300ms,2@1s")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 2 {
		t.Fatalf("len = %d", len(plan))
	}
	if plan[0].From != 0 || plan[0].At != 300*time.Millisecond || plan[0].Op != faultline.OpCrash {
		t.Fatalf("plan[0] = %+v", plan[0])
	}
	if plan[1].From != 2 || plan[1].At != time.Second || plan[1].Op != faultline.OpCrash {
		t.Fatalf("plan[1] = %+v", plan[1])
	}
}

func TestParseCrashesEmpty(t *testing.T) {
	plan, err := parseCrashes("")
	if err != nil || plan != nil {
		t.Fatalf("plan=%v err=%v", plan, err)
	}
}

func TestParseCrashesErrors(t *testing.T) {
	for _, bad := range []string{"nonsense", "1@", "@3s", "1@xyz", "1-3s"} {
		if _, err := parseCrashes(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	// Exercise the whole CLI path on a small scenario; output goes to
	// the test's stdout.
	err := run([]string{"-n", "3", "-algo", "core", "-run", "200ms", "-seed", "2"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithCrashAndTrace(t *testing.T) {
	err := run([]string{"-n", "3", "-algo", "alltoall", "-run", "100ms", "-crash", "0@20ms", "-trace"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRelayAlgorithmOnTimelyPathRegime(t *testing.T) {
	err := run([]string{"-n", "4", "-algo", "core-relay", "-regime", "timely-path", "-run", "500ms"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadAlgorithm(t *testing.T) {
	if err := run([]string{"-algo", "nope"}); err == nil {
		t.Fatal("bad algorithm accepted")
	}
}

func TestRunRejectsBadCrashSpec(t *testing.T) {
	if err := run([]string{"-crash", "zzz"}); err == nil {
		t.Fatal("bad crash spec accepted")
	}
}

func TestRunSweep(t *testing.T) {
	if err := run([]string{"-n", "3", "-algo", "core", "-run", "500ms", "-sweep", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSweepRejectsBadRegime(t *testing.T) {
	if err := run([]string{"-regime", "nope", "-sweep", "2"}); err == nil {
		t.Fatal("bad regime accepted in sweep")
	}
}
