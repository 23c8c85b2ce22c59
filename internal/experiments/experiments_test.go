package experiments

import (
	"fmt"
	"strings"
	"testing"
)

var quick = Opts{Quick: true, Seeds: 2}

func TestE1ShapeHolds(t *testing.T) {
	tab := E1SteadyStateMessages(quick)
	if len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
	// Core rows must be near n-1; baseline rows near n(n-1).
	for _, row := range tab.Rows {
		n := atoiOrFail(t, row[0])
		got := atofOrFail(t, row[2])
		switch row[1] {
		case "core":
			want := float64(n - 1)
			if got < want*0.8 || got > want*1.5 {
				t.Errorf("n=%d core msgs/η = %v, want ≈ %v", n, got, want)
			}
		case "alltoall", "source":
			want := float64(n * (n - 1))
			if got < want*0.8 || got > want*1.3 {
				t.Errorf("n=%d %s msgs/η = %v, want ≈ %v", n, row[1], got, want)
			}
		}
	}
}

func TestE2SeriesDecays(t *testing.T) {
	s := E2ConvergenceSeries(quick)
	if len(s.Names) != 3 || len(s.X) == 0 {
		t.Fatalf("series shape: %d names, %d points", len(s.Names), len(s.X))
	}
	// The core curve's tail must be far below the alltoall tail.
	var coreTail, allTail float64
	for i, name := range s.Names {
		tail := s.Y[i][len(s.Y[i])-1]
		switch name {
		case "core":
			coreTail = tail
		case "alltoall":
			allTail = tail
		}
	}
	if coreTail*5 > allTail {
		t.Fatalf("core tail %v not ≪ alltoall tail %v", coreTail, allTail)
	}
	if out := s.Markdown(); !strings.Contains(out, "## E2") {
		t.Fatal("markdown missing id")
	}
}

func TestE5LinksShape(t *testing.T) {
	tab := E5LinksUsed(quick)
	for _, row := range tab.Rows {
		n := atoiOrFail(t, row[0])
		links := atoiOrFail(t, row[1+1])
		if row[1] == "core" && links != n-1 {
			t.Errorf("core n=%d links = %d, want %d", n, links, n-1)
		}
		if row[1] == "alltoall" && links != n*(n-1) {
			t.Errorf("alltoall n=%d links = %d, want %d", n, links, n*(n-1))
		}
	}
}

func TestE6LeaderBasedCheaperThanCT(t *testing.T) {
	tab := E6ConsensusCost(quick)
	// For every n, rsm (no crash) must use fewer messages than ct, and rsm
	// must decide on every seed, its first leader crashed or not.
	all := fmt.Sprintf("%d/%d", quick.Seeds, quick.Seeds)
	costs := map[string]map[string]float64{}
	for _, row := range tab.Rows {
		n := row[0]
		if costs[n] == nil {
			costs[n] = map[string]float64{}
		}
		costs[n][row[1]] = atofOrFail(t, row[2])
		if strings.HasPrefix(row[1], "rsm+Ω") && row[4] != all {
			t.Errorf("n=%s: %s decided %s, want %s", n, row[1], row[4], all)
		}
	}
	for n, byProto := range costs {
		if byProto["rsm+Ω"] >= byProto["ct-rotating"] {
			t.Errorf("n=%s: rsm %v >= ct %v", n, byProto["rsm+Ω"], byProto["ct-rotating"])
		}
	}
}

func TestE7SteadyStateNearPrediction(t *testing.T) {
	s := E7RepeatedConsensus(quick)
	ys := s.Y[0]
	if len(ys) < 4 {
		t.Fatalf("too few buckets: %d", len(ys))
	}
	// The bucket before the crash (first quarter) should be near 3(n-1)+1
	// = 13 for n=5 (requests from a non-leader add one).
	early := ys[1]
	if early < 10 || early > 20 {
		t.Errorf("steady-state msgs/cmd = %v, want ≈ 13", early)
	}
	// The final bucket is the steady state of the four survivors: the
	// crashed replica no longer answers, so the leader streams it nothing
	// but a probe a retryTimeout (rsm's fan-out), and a command costs what
	// n−1 live replicas need, 3(n−2)+1 = 10.
	last := ys[len(ys)-1]
	if last < 8 || last > 11 {
		t.Errorf("post-crash steady-state msgs/cmd = %v, want ≈ 10", last)
	}
}

func TestE9AblationsBreakTheRightThing(t *testing.T) {
	tab := E9Ablations(Opts{Quick: true, Seeds: 1})
	byKey := map[string][]string{}
	for _, row := range tab.Rows {
		byKey[row[0]+"/"+row[1]] = row
	}
	check := func(key, wantHolds string) {
		t.Helper()
		row, ok := byKey[key]
		if !ok {
			t.Fatalf("missing row %q in %v", key, byKey)
		}
		if row[2] != wantHolds {
			t.Errorf("%s: Ω holds = %s, want %s (row %v)", key, row[2], wantHolds, row)
		}
	}
	check("slow timely links (delay ≤ 5η)/core", "yes")
	check("slow timely links (delay ≤ 5η)/core-nogrowth", "no")
	check("dead link p0→p1 (split-brain bait)/core", "yes")
	check("dead link p0→p1 (split-brain bait)/core-noaccuse", "no")
}

func TestTableAndSeriesRender(t *testing.T) {
	tab := Table{ID: "X", Title: "t", Note: "n", Columns: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	if out, want := tab.Markdown(), "## X — t\n\nn\n\n| a | b |\n| --- | --- |\n| 1 | 2 |\n"; out != want {
		t.Fatalf("table renders %q, want %q", out, want)
	}
	s := Series{ID: "Y", Title: "curve", XLabel: "x", YLabel: "y",
		Names: []string{"c"}, X: []float64{0, 1}, Y: [][]float64{{1, 2}}}
	if out, want := s.Markdown(), "## Y — curve\n\n| x | c |\n| --- | --- |\n| 0 | 1.0 |\n| 1 | 2.0 |\n"; out != want {
		t.Fatalf("series renders %q, want %q", out, want)
	}
}

func TestSuiteAndRunOne(t *testing.T) {
	items := Suite()
	if len(items) != 14 {
		t.Fatalf("suite has %d items, want 14", len(items))
	}
	var b strings.Builder
	if err := RunOne(&b, "E5", quick); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "## E5 — ") {
		t.Fatalf("RunOne output is not E5's markdown section: %.40q", b.String())
	}
	if err := RunOne(&b, "E99", quick); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func atoiOrFail(t *testing.T, s string) int {
	t.Helper()
	var v int
	if _, err := fmt.Sscan(s, &v); err != nil {
		t.Fatalf("parse int %q: %v", s, err)
	}
	return v
}

func atofOrFail(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscan(s, &v); err != nil {
		t.Fatalf("parse float %q: %v", s, err)
	}
	return v
}
