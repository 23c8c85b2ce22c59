package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestRunRecoveryPlanMem is the CI recovery soak over TCP: kill -9 the
// leader mid-batch, restart it in place from its WAL directory, and
// require rejoin, catch-up, renewed proposer eligibility, and replay
// equivalence. It stays enabled under -short so the -race CI job always
// runs it. The same run writes -metrics-out, read back here: the file is
// the collector's one export, so it must hold every histogram family an
// exposition has, and the leader the processes agreed on at the end.
func TestRunRecoveryPlanMem(t *testing.T) {
	out := filepath.Join(t.TempDir(), "metrics", "drill.prom")
	if err := run([]string{
		"-n", "3", "-commands", "2", "-bound", "30s", "-fsync", "group",
		"-wal-dir", t.TempDir(), "-metrics-out", out,
	}); err != nil {
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

func TestRunRejectsBadFlags(t *testing.T) {
	cases := map[string]struct {
		args []string
		want string
	}{
		"no -plan flag":   {[]string{"-plan", "crash"}, "flag provided but not defined: -plan"},
		"drill needs 3":   {[]string{"-n", "2"}, "needs n >= 3"},
		"no -groups flag": {[]string{"-n", "3", "-groups", "2"}, "flag provided but not defined: -groups"},
	}
	for name, tc := range cases {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: run(%v) = %v, want an error containing %q", name, tc.args, err, tc.want)
		}
	}
}
