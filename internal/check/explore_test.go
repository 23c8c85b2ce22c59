package check_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/faultline"
	"repro/internal/node"
	"repro/internal/scenario"
)

// cutMapLinks are the six directed links of n = 3; bit i of a cut set is
// links[i].
var cutMapLinks = [6][2]node.ID{{0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 0}, {2, 1}}

// cutMapSpace is every set of directed links at n = 3, cut at t = 0 for
// good: 64 schedules, the empty one first.
func cutMapSpace() []faultline.Schedule {
	space := make([]faultline.Schedule, 64)
	for set := range space {
		for i, l := range cutMapLinks {
			if set&(1<<i) != 0 {
				space[set] = append(space[set], faultline.Event{Op: faultline.OpCut, From: l[0], To: l[1]})
			}
		}
	}
	return space
}

// rooted reports whether the links a schedule leaves working reach every
// process from some one process.
func rooted(s faultline.Schedule) bool {
	var up [3][3]bool
	for _, l := range cutMapLinks {
		up[l[0]][l[1]] = true
	}
	for _, e := range s {
		up[e.From][e.To] = false
	}
	for root := 0; root < 3; root++ {
		var seen [3]bool
		seen[root] = true
		for range 2 { // a path at n = 3 has at most two hops
			for p := range 3 {
				for q := range 3 {
					seen[q] = seen[q] || (seen[p] && up[p][q])
				}
			}
		}
		if seen == [3]bool{true, true, true} {
			return true
		}
	}
	return false
}

// TestCutMapN3 is the cut map at n = 3: every set of directed links cut at
// t = 0, all other links timely, under each Ω, seeds 1–5 (seed 1 under
// -short), judged by check.Omega at a 20 s horizon. core-relay holds on
// exactly the rooted graphs: 51 of 64. The other algorithms' counts are
// printed beside the ones the map was first measured with; they are
// measurements, not bounds.
func TestCutMapN3(t *testing.T) {
	space := cutMapSpace()
	nRooted := 0
	for _, s := range space {
		if rooted(s) {
			nRooted++
		}
	}
	if nRooted != 51 {
		t.Fatalf("%d rooted graphs, want 51", nRooted)
	}
	seeds := 5
	if testing.Short() {
		seeds = 1
	}
	measured := map[scenario.Algorithm]string{
		scenario.AlgoCore:       "32/33/33/32/33",
		scenario.AlgoCoreRebuff: "33/33/32/32/33",
		scenario.AlgoCoreRelay:  "51/51/51/51/51",
		scenario.AlgoSource:     "40/40/40/40/40",
		scenario.AlgoAllToAll:   "16/16/16/16/16",
	}
	omega := func(in check.OmegaInput) string { return check.Omega(in).Reason }
	for _, algo := range []scenario.Algorithm{scenario.AlgoCore, scenario.AlgoCoreRebuff, scenario.AlgoCoreRelay, scenario.AlgoSource, scenario.AlgoAllToAll} {
		counts := ""
		for seed := int64(1); seed <= int64(seeds); seed++ {
			fails := check.Explore(space, func(s faultline.Schedule) check.OmegaInput {
				sys, err := scenario.Build(scenario.Config{N: 3, Seed: seed, Algorithm: algo, Schedule: s})
				if err != nil {
					panic(err)
				}
				sys.Run(20 * time.Second)
				return sys.OmegaInput()
			}, omega)
			failed := map[string]bool{}
			for _, f := range fails {
				failed[string(f.Schedule.Bytes())] = true
				t.Logf("%s seed %d: %v", algo, seed, f)
			}
			if algo == scenario.AlgoCoreRelay {
				for _, s := range space {
					if rooted(s) == failed[string(s.Bytes())] {
						t.Errorf("core-relay seed %d, rooted=%v, holds=%v: %v", seed, rooted(s), !failed[string(s.Bytes())], s)
					}
				}
			}
			counts += fmt.Sprintf("/%d", len(space)-len(fails))
		}
		t.Logf("%-12s holds on %s of 64 (first measured %s)", algo, counts[1:], measured[algo])
	}
}
