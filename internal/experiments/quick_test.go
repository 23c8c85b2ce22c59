package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// These are smoke-and-shape tests for the experiment drivers not covered
// elsewhere, run at Quick scale.

func TestE3StabilizationGrowsWithGST(t *testing.T) {
	tab := E3StabilizationVsGST(Opts{Quick: true, Seeds: 2})
	// For the core algorithm, mean stabilization at the largest GST must
	// exceed the one at GST=0.
	var first, last float64
	for _, row := range tab.Rows {
		if row[1] != "core" {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[2], "η"), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", row[2], err)
		}
		if first == 0 && row[0] == "0" {
			first = v + 1 // avoid 0 sentinel
		}
		last = v
	}
	if last <= first {
		t.Fatalf("stabilization did not grow with GST: first=%v last=%v", first, last)
	}
	// Every cell converged.
	for _, row := range tab.Rows {
		if !strings.HasSuffix(row[4], "/2") || !strings.HasPrefix(row[4], "2") {
			t.Fatalf("cell %v did not converge in all seeds", row)
		}
	}
}

func TestE4RecoveryLatencyBounded(t *testing.T) {
	tab := E4CrashRecovery(Opts{Quick: true, Seeds: 2})
	for _, row := range tab.Rows {
		if row[4] == "FAILED" {
			t.Fatalf("row %v failed to re-elect", row)
		}
		lat, err := strconv.ParseFloat(strings.TrimSuffix(row[2], "ms"), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", row[2], err)
		}
		// Re-election is governed by the ~30ms base timeout, far below
		// 100ms for every algorithm and size.
		if lat <= 0 || lat > 100 {
			t.Fatalf("row %v: latency %vms out of range", row, lat)
		}
	}
}

// TestE14ReadCost pins what reads cost with and without the lease: no row
// consumes a log instance, the lease rows answer every read locally, the
// others every read through a round of grants, and the lease-less rows
// cost no more than the no-op barrier they replaced did at this scale
// (2.00 and 3.42 msgs/read).
func TestE14ReadCost(t *testing.T) {
	tab := E14LeaseReads(Opts{Quick: true})
	const reads = "40"
	budget := map[string]float64{"leader": 2.00, "follower": 3.42}
	if len(tab.Rows) != 4 {
		t.Fatalf("E14 has %d rows, want 4", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		variant, origin, local, fallback := row[0], row[1], row[4], row[5]
		if row[3] != "0" {
			t.Fatalf("%s/%s: reads consumed %s log instances, want 0", variant, origin, row[3])
		}
		served := fallback
		if variant == "lease" {
			served = local
		} else if perRead, err := strconv.ParseFloat(row[2], 64); err != nil || perRead > budget[origin] {
			t.Fatalf("%s/%s: %s msgs/read, want at most %.2f", variant, origin, row[2], budget[origin])
		}
		if served != reads || (local != "0" && fallback != "0") {
			t.Fatalf("%s/%s: %s local and %s through a round, want all %s one way", variant, origin, local, fallback, reads)
		}
	}
}

func TestE12CommitIndexShape(t *testing.T) {
	tab := E12CommitIndex(Opts{Quick: true, Seeds: 1})
	const n, cmds, cmdBytes = 5, 30, 32
	cell := func(row []string, col int) float64 {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", row[col], err)
		}
		return v
	}
	byRegime := map[string][]string{}
	for _, row := range tab.Rows {
		byRegime[row[0]] = row
		if learns := cell(row, 4); learns != 0 {
			t.Fatalf("%s: %v LEARNs on a fault-free run: followers initiated traffic", row[0], learns)
		}
		// A command's bytes cross each link once, whatever the regime
		// (plus the envelope framing of a burst's batches).
		if vb := cell(row, 5); vb < (n-1)*cmdBytes || vb > (n-1)*(cmdBytes+2) {
			t.Fatalf("%s: %v value bytes/cmd, want ≈ %d (once per link)", row[0], vb, (n-1)*cmdBytes)
		}
	}
	// Re-budgeted with the addressed announcement: idle is still 3(n−1) —
	// commands at the leader owe nobody, and the catch-up tells all n−1 a
	// drive interval later — and spaced is new: one DECIDE per instance, to
	// the follower the command came from, and n−2 in the catch-up at the end.
	if got := cell(byRegime["idle"], 2); got != 3*(n-1) {
		t.Fatalf("idle stream = %v msgs/cmd, want 3(n-1) = %d", got, 3*(n-1))
	}
	if got := cell(byRegime["spaced"], 3); got != cmds+n-2 {
		t.Fatalf("spaced sent %v DECIDE-kind messages, want one per instance and %d in the catch-up = %d", got, n-2, cmds+n-2)
	}
	if got := cell(byRegime["spaced"], 2); got < 2*(n-1)+1 || got > 2*(n-1)+1.2 {
		t.Fatalf("spaced = %v msgs/cmd, want ≈ 2(n-1)+1 = %d", got, 2*(n-1)+1)
	}
	// Back to back, every commit but the last rides the next ACCEPT.
	if got := cell(byRegime["back-to-back"], 2); got > 2*(n-1)+0.5 {
		t.Fatalf("back-to-back = %v msgs/cmd, want ≈ 2(n-1) = %d", got, 2*(n-1))
	}
	if got := cell(byRegime["back-to-back"], 3); got > n-1 {
		t.Fatalf("back-to-back sent %v DECIDE-kind messages, want only the tail's %d", got, n-1)
	}
	if got := cell(byRegime["burst"], 1); got >= cmds/2 {
		t.Fatalf("burst used %v instances for %d commands: not batched", got, cmds)
	}
}

func TestE13RebuffRepairsPartition(t *testing.T) {
	tab := E13PartitionHeal(Opts{Quick: true, Seeds: 1})
	byAlgo := map[string][]string{}
	for _, row := range tab.Rows {
		byAlgo[row[0]] = row
	}
	if byAlgo["core"][1] != "no" {
		t.Fatalf("base core unexpectedly recovered: %v", byAlgo["core"])
	}
	if byAlgo["core-rebuff"][1] != "yes" || byAlgo["core-rebuff"][2] != "1" {
		t.Fatalf("rebuff did not repair: %v", byAlgo["core-rebuff"])
	}
}
