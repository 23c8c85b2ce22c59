package faultline

import (
	"slices"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/node"
)

// decision is one recorded Transmit outcome.
type decision struct {
	delay   time.Duration
	deliver bool
}

// runSequence replays k Transmit calls on every directed link of inj at
// the given elapsed times and returns the flattened decision log.
func runSequence(inj *Injector, elapsed []time.Duration) []decision {
	var out []decision
	for _, e := range elapsed {
		for from := 0; from < inj.N(); from++ {
			for to := 0; to < inj.N(); to++ {
				if from == to {
					continue
				}
				d, ok := inj.Transmit(node.ID(from), node.ID(to), e)
				out = append(out, decision{delay: d, deliver: ok})
			}
		}
	}
	return out
}

func elapsedRamp(k int, step time.Duration) []time.Duration {
	out := make([]time.Duration, k)
	for i := range out {
		out[i] = time.Duration(i) * step
	}
	return out
}

func lossyPlan() Plan {
	return Plan{
		Default: network.FairLossy(0, 5*time.Millisecond, 0.5),
		Links: map[Link]network.Profile{
			{From: 0, To: 1}: network.EventuallyTimely(time.Millisecond, 20*time.Millisecond, 0.8),
		},
		GST: 50 * time.Millisecond,
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	mk := func() *Injector {
		inj, err := New(4, 42, lossyPlan())
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	times := elapsedRamp(200, time.Millisecond)
	a := runSequence(mk(), times)
	b := runSequence(mk(), times)
	if len(a) != len(b) {
		t.Fatalf("decision counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	mk := func(seed int64) *Injector {
		inj, err := New(4, seed, lossyPlan())
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	times := elapsedRamp(200, time.Millisecond)
	a := runSequence(mk(1), times)
	b := runSequence(mk(2), times)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("independent seeds produced identical decision logs")
	}
}

func TestCutHealPreservesDecisionStream(t *testing.T) {
	// A run with a mid-stream cut must agree with an uncut run on every
	// decision outside the cut window: cuts mask, they don't consume.
	mk := func() *Injector {
		inj, err := New(2, 7, Plan{Default: network.FairLossy(0, time.Millisecond, 0.4)})
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	plain, cut := mk(), mk()
	var plainLog, cutLog []decision
	for k := 0; k < 300; k++ {
		if k == 100 {
			cut.Cut([]node.ID{0}, []node.ID{1})
		}
		if k == 200 {
			cut.Heal()
		}
		d1, ok1 := plain.Transmit(0, 1, 0)
		d2, ok2 := cut.Transmit(0, 1, 0)
		plainLog = append(plainLog, decision{d1, ok1})
		cutLog = append(cutLog, decision{d2, ok2})
	}
	for k := 0; k < 300; k++ {
		if k >= 100 && k < 200 {
			if cutLog[k].deliver {
				t.Fatalf("decision %d delivered across a cut", k)
			}
			continue
		}
		if plainLog[k] != cutLog[k] {
			t.Fatalf("decision %d diverged outside cut window: %+v vs %+v", k, plainLog[k], cutLog[k])
		}
	}
}

func TestGSTSwitchesEventuallyTimely(t *testing.T) {
	gst := 100 * time.Millisecond
	inj, err := New(2, 3, Plan{
		Default: network.EventuallyTimely(2*time.Millisecond, 50*time.Millisecond, 0.9),
		GST:     gst,
	})
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	for k := 0; k < 200; k++ {
		if _, ok := inj.Transmit(0, 1, 0); !ok {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("pre-GST eventually-timely link never dropped at 0.9 loss")
	}
	for k := 0; k < 200; k++ {
		d, ok := inj.Transmit(0, 1, gst)
		if !ok {
			t.Fatal("post-GST eventually-timely link dropped")
		}
		if d > 2*time.Millisecond {
			t.Fatalf("post-GST delay %v exceeds Delta", d)
		}
	}
}

func TestPerfectDefaultAndDownOverride(t *testing.T) {
	inj, err := New(3, 1, Plan{
		Links: map[Link]network.Profile{{From: 0, To: 2}: network.Down()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := inj.Transmit(0, 1, 0); !ok || d != 0 {
		t.Fatalf("perfect link: got (%v, %v)", d, ok)
	}
	if _, ok := inj.Transmit(0, 2, 0); ok {
		t.Fatal("down link delivered")
	}
}

func TestIsolateAndHealLink(t *testing.T) {
	inj, err := New(3, 1, Plan{})
	if err != nil {
		t.Fatal(err)
	}
	inj.Cut([]node.ID{1}, []node.ID{0, 2})
	for _, l := range []Link{{0, 1}, {1, 0}, {2, 1}, {1, 2}} {
		if _, ok := inj.Transmit(l.From, l.To, 0); ok {
			t.Fatalf("isolated link %v delivered", l)
		}
	}
	if _, ok := inj.Transmit(0, 2, 0); !ok {
		t.Fatal("unrelated link severed by isolating p1")
	}
	inj.Heal()
	for _, l := range []Link{{0, 1}, {1, 0}, {2, 1}, {1, 2}} {
		if _, ok := inj.Transmit(l.From, l.To, 0); !ok {
			t.Fatalf("healed link %v still severed", l)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 0, Plan{}); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := New(2, 0, Plan{GST: -time.Second}); err == nil {
		t.Fatal("negative GST accepted")
	}
	if _, err := New(2, 0, Plan{Default: network.Profile{Kind: network.LinkTimely}}); err == nil {
		t.Fatal("invalid default profile accepted")
	}
	if _, err := New(2, 0, Plan{Links: map[Link]network.Profile{{0, 0}: network.Down()}}); err == nil {
		t.Fatal("self-link override accepted")
	}
	if _, err := New(2, 0, Plan{Links: map[Link]network.Profile{{0, 5}: network.Down()}}); err == nil {
		t.Fatal("out-of-range link accepted")
	}
	if _, err := New(2, 0, Plan{Schedule: Schedule{{Op: OpCrash, From: 9}}}); err == nil {
		t.Fatal("out-of-range crash accepted")
	}
	if _, err := New(2, 0, Plan{Schedule: Schedule{{At: -time.Second, Op: OpCrash}}}); err == nil {
		t.Fatal("negative crash offset accepted")
	}
	if _, err := New(2, 0, Plan{Schedule: Schedule{{Op: OpCut, From: 1, To: 1}}}); err == nil {
		t.Fatal("cut of a self-link accepted")
	}
	if _, err := New(2, 0, Plan{Schedule: Schedule{{At: time.Second, Op: OpCrash}, {Op: OpRestart}}}); err == nil {
		t.Fatal("schedule out of time order accepted")
	}
	if _, err := New(2, 0, Plan{Schedule: Schedule{{Op: OpRestart + 1}}}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestScheduleAccessorsReturnCopies(t *testing.T) {
	plan := Plan{Schedule: Schedule{
		{At: time.Second, Op: OpCrash, From: 0},
		{At: 2 * time.Second, Op: OpRestart, From: 0},
	}}
	want := slices.Clone(plan.Schedule)
	inj, err := New(3, 7, plan)
	if err != nil {
		t.Fatal(err)
	}

	// A caller mutating the returned slice must not corrupt the schedule
	// the transports will read later.
	got := inj.Schedule()
	got[0].From = 2
	if !slices.Equal(inj.Schedule(), want) {
		t.Fatalf("schedule corrupted through accessor: %v", inj.Schedule())
	}

	// The schedule handed to New is copied too: later caller-side
	// mutation of the plan must not reach the injector.
	plan.Schedule[1].At = 0
	if !slices.Equal(inj.Schedule(), want) {
		t.Fatalf("injector aliases the caller's schedule: %v", inj.Schedule())
	}
}
