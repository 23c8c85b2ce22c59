package scenario

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/faultline"
	"repro/internal/sim"
)

// TestWorldLevelDeterminism: identical configurations replay bit-for-bit —
// same message counts, same leader histories, same stabilization instants;
// and for a consensus world (an rsm log whose first leader crashes while
// commands submitted at several replicas are in flight) the same decided
// prefix, applied count and per-kind message counts. This is the property
// that makes every experiment in EXPERIMENTS.md regenerable.
func TestWorldLevelDeterminism(t *testing.T) {
	run := func() (uint64, []sim.Time, []int) {
		s, err := Build(Config{
			N: 6, Seed: 1234, Algorithm: AlgoCore, Regime: RegimeAllET,
			GST:      sim.At(200 * time.Millisecond),
			Schedule: faultline.Schedule{{At: 700 * time.Millisecond, Op: faultline.OpCrash, From: 0}},
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(3 * time.Second)
		var stabilized []sim.Time
		var changes []int
		for _, om := range s.Omegas {
			at, _ := om.History().StableSince()
			stabilized = append(stabilized, at)
			changes = append(changes, om.History().NumChanges())
		}
		return s.World.Stats.TotalSent(), stabilized, changes
	}
	sent1, stab1, ch1 := run()
	sent2, stab2, ch2 := run()
	if sent1 != sent2 {
		t.Fatalf("message counts diverged: %d vs %d", sent1, sent2)
	}
	for i := range stab1 {
		if stab1[i] != stab2[i] || ch1[i] != ch2[i] {
			t.Fatalf("p%d history diverged: (%v,%d) vs (%v,%d)", i, stab1[i], ch1[i], stab2[i], ch2[i])
		}
	}

	type digest struct {
		firstGap, applied []int
		kinds             map[string]uint64
		sent              uint64
	}
	runLog := func() digest {
		s, err := Build(Config{
			N: 5, Seed: 77, Regime: RegimeAllET, Consensus: ConsensusRSM,
			GST:      sim.At(100 * time.Millisecond),
			Schedule: faultline.Schedule{{At: 600 * time.Millisecond, Op: faultline.OpCrash, From: 0}},
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(500 * time.Millisecond)
		for i := 0; i < 40; i++ {
			s.Logs[1+i%4].Submit(consensus.Value(fmt.Sprintf("c%d", i)))
			s.Run(5 * time.Millisecond)
		}
		s.Run(2 * time.Second)
		d := digest{kinds: make(map[string]uint64), sent: s.World.Stats.TotalSent()}
		for _, l := range s.Logs {
			d.firstGap = append(d.firstGap, l.FirstGap())
			d.applied = append(d.applied, l.Applied())
		}
		for _, k := range s.World.Stats.Kinds() {
			d.kinds[k] = s.World.Stats.KindCount(k)
		}
		return d
	}
	a, b := runLog(), runLog()
	if a.applied[1] < 40 {
		t.Fatalf("the log world applied too little to compare: first gaps %v, applied %v", a.firstGap, a.applied)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("consensus world diverged:\n%+v\n%+v", a, b)
	}
}

// TestSeedsActuallyMatter guards against accidentally ignoring the seed.
func TestSeedsActuallyMatter(t *testing.T) {
	counts := make(map[uint64]bool)
	for seed := int64(0); seed < 4; seed++ {
		s, err := Build(Config{N: 5, Seed: seed, Regime: RegimeAllET, GST: sim.At(300 * time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(2 * time.Second)
		counts[s.World.Stats.TotalSent()] = true
	}
	if len(counts) < 2 {
		t.Fatalf("4 different seeds produced %d distinct runs", len(counts))
	}
}
