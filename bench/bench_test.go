package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/consensus"
)

// TestBenchmarkJSONIsCurrent keeps the committed contract equal to the
// tables in spec.go and inside the limits the driver enforces.
func TestBenchmarkJSONIsCurrent(t *testing.T) {
	want := benchmarkJSON()
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from `bench spec`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	gated := 0
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.Name)
		}
		if !w.Manual {
			gated++
		}
	}
	setup := false
	for _, d := range endToEnd {
		check(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > endToEnd[0].Bound {
			t.Errorf("%s: unit %q or bound %v out of range", d.Name, d.Unit, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup || endToEnd[0].Name != "setup_s" || endToEnd[0].Bound > 0.25 {
		t.Error("setup_s, in seconds, lower is better, must come first with the largest bound, at most 0.25")
	}
	for _, d := range perLayer {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
	}
	for name := range hostSpeed {
		if !seen[name] {
			t.Errorf("hostSpeed names %q, which is not a per-layer metric", name)
		}
	}
	if gated < 2 || gated > 8 || len(endToEnd) > 16 || len(perLayer) > 128 || len(want) > 64<<10 {
		t.Error("contract size limits exceeded")
	}
}

// TestSmoke runs every workload for one second, untraced and traced
// (traced only with -short: that pass measures an untraced window first):
// the correctness gate must pass, nothing may fail, and every metric must
// be reported, the end-to-end ones non-zero. A stability guard that trips
// is logged, not failed: a one-second run on a box that is also running
// tests says nothing about how quiet the box is.
func TestSmoke(t *testing.T) {
	tmp := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if testing.Short() && !traced {
				continue
			}
			run := runLive
			if w.Sim {
				run = runSim
			}
			m, err := run(w, 7, 1, traced, tmp)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if len(m.Violations) > 0 {
				t.Errorf("%s traced=%v: %v", w.Name, traced, m.Violations)
			}
			if len(m.Unstable) > 0 {
				t.Logf("%s traced=%v: unstable: %v", w.Name, traced, m.Unstable)
				continue // an invalid run reports no metrics
			}
			if m.Attempted < 1 || m.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.Name, traced, m.Attempted, m.Failed)
			}
			line := m.line(traced)
			for _, d := range endToEnd {
				if v := m.E2E[d.Name]; v <= 0 {
					t.Errorf("%s traced=%v: %s = %v", w.Name, traced, d.Name, v)
				}
			}
			if traced && len(line.Metrics) != len(perLayer) || !traced && len(line.Metrics) != len(endToEnd) {
				t.Errorf("%s traced=%v: result line has %d metrics", w.Name, traced, len(line.Metrics))
			}
			if traced && len(m.Budget) == 0 {
				t.Errorf("%s: traced pass printed no budget", w.Name)
			}
		}
	}
}

// deterministic is the part of a simulated run's result that a seed
// fixes: counts and simulated-time latencies, never wall-clock speeds.
func deterministic(t *testing.T, w workload, seed int64) []byte {
	t.Helper()
	m, err := runSim(w, seed, 1, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Violations) > 0 {
		t.Fatalf("%s seed %d: %v", w.Name, seed, m.Violations)
	}
	out, err := json.Marshal(map[string]any{
		"attempted":    m.Attempted,
		"failed":       m.Failed,
		"op_p50_ms":    m.E2E["op_p50_ms"],
		"op_tail_ms":   m.E2E["op_tail_ms"],
		"msgs_per_cmd": m.E2E["msgs_per_cmd"],
		"digest":       m.Digest,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSimWorkloadsAreDeterministic(t *testing.T) {
	for _, name := range []string{"sim_steady", "sim_failover"} {
		w, _ := findWorkload(name)
		a, b, c := deterministic(t, w, 11), deterministic(t, w, 11), deterministic(t, w, 12)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: one seed, two results:\n%s\n%s", name, a, b)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 11 and 12 ran the same schedule", name)
		}
	}
}

func TestCommandRoundTrip(t *testing.T) {
	p := newPayload(42)
	for _, seq := range []int64{0, 1, 99999, 123456789012345} {
		v := p.command(seq)
		if len(v) != cmdBytes || v != p.command(seq) {
			t.Fatalf("command %d is not %d stable bytes: %q", seq, cmdBytes, v)
		}
		if got, ok := commandSeq(v); !ok || got != seq {
			t.Fatalf("commandSeq(%q) = %d, %v", v, got, ok)
		}
	}
	if p.command(1) == newPayload(43).command(1) {
		t.Error("two seeds made the same command")
	}
	for _, v := range []string{"", probePrefix + "0", "__noop__", strings.Repeat("x", cmdBytes)} {
		if _, ok := commandSeq(consensus.Value(v)); ok {
			t.Errorf("commandSeq accepted %q", v)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50s []float64, failed int64) string {
		f := runFile{Seconds: 1}
		for i, v := range p50s {
			f.Runs = append(f.Runs, runRecord{Workload: "tcp_write", Seed: int64(i), Result: resultLine{
				Correct: true, Attempted: 100, Failed: failed,
				Metrics: map[string]metricValue{"op_p50_ms": {v, "ms"}},
			}})
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", []float64{1.00, 1.01, 0.99, 1.00}, 0)
	for _, tc := range []struct {
		name    string
		p50s    []float64
		failed  int64
		verdict string
		fails   bool
	}{
		{"same", []float64{1.01, 1.00, 1.00, 0.99}, 0, "ok", false},
		{"slower", []float64{1.30, 1.31, 1.29, 1.30}, 0, "REGRESSION", true},
		{"noisy", []float64{0.60, 1.40, 1.00, 1.05}, 0, "unresolved", false},
		{"failing", []float64{1.00, 1.00, 1.00, 1.00}, 1, "REGRESSION", true},
	} {
		var out bytes.Buffer
		err := compare(&out, base, write(tc.name+".json", tc.p50s, tc.failed))
		if (err != nil) != tc.fails || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: err %v, want failure %v and verdict %q in:\n%s", tc.name, err, tc.fails, tc.verdict, out.String())
		}
	}
}

// TestCompareHoldsSimCountsExact: on a simulated workload a seed fixes
// the counts, so with the same seeds on both sides any worsening is a
// regression; with other seeds the metric's ordinary bound applies.
func TestCompareHoldsSimCountsExact(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seed int64, msgs float64) string {
		f := runFile{Seconds: 1}
		for i := int64(0); i < 4; i++ {
			f.Runs = append(f.Runs, runRecord{Workload: "sim_steady", Seed: seed + i, Result: resultLine{
				Correct: true, Attempted: 100,
				Metrics: map[string]metricValue{"msgs_per_cmd": {msgs, "count"}},
			}})
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1, 2.034)
	var out bytes.Buffer
	if err := compare(&out, base, write("same.json", 1, 2.034)); err != nil {
		t.Errorf("identical counts: %v\n%s", err, out.String())
	}
	if err := compare(&out, base, write("more.json", 1, 2.035)); err == nil {
		t.Errorf("one seed, more messages per command, no regression:\n%s", out.String())
	}
	if err := compare(&out, base, write("other.json", 50, 2.035)); err != nil {
		t.Errorf("other seeds are not held exact: %v\n%s", err, out.String())
	}
}
