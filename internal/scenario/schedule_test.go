package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/faultline"
	"repro/internal/obs"
	"repro/internal/sim"
)

// scheduleWorld is FuzzSchedule's world under sched: n = 3, seed 1, all
// links timely (Δ = 2 ms), core-rebuff under rsm at its defaults, and
// commands c0–c19 submitted at p(k mod 3), one every 15 ms from t = 0,
// from kernel callbacks. applied[i] counts what replica i applied, by
// command.
func scheduleWorld(t testing.TB, sched faultline.Schedule) (s *System, applied []map[consensus.Value]int) {
	s, err := Build(Config{N: 3, Seed: 1, Algorithm: AlgoCoreRebuff, Consensus: ConsensusRSM, Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	for i, log := range s.Logs {
		applied = append(applied, map[consensus.Value]int{})
		log.OnApply(func(_, _ int, v consensus.Value) { applied[i][v]++ })
	}
	for k := range 20 {
		v := consensus.Value(fmt.Sprintf("c%d", k))
		s.World.Kernel.ScheduleAt(sim.At(time.Duration(k)*15*ms), func() { s.Logs[k%3].Submit(v) })
	}
	return s, applied
}

// safety is the schedule world's one fuzz predicate: consensus safety over
// every replica's Recorder.
func safety(s *System) consensus.SafetyReport {
	recs := make([]*consensus.Recorder, len(s.Logs))
	for i, log := range s.Logs {
		recs[i] = log.Recorder()
	}
	return consensus.CheckSafety(consensus.SafetyInput{Recorders: recs})
}

// FuzzSchedule runs the schedule world for 2 simulated seconds under each
// input's schedule (faultline.Decode; a restart, which the simulator
// cannot run, is dropped) and fails on a safety violation only: a
// schedule the cluster does not recover from in 2 s, like schedule B, is
// not a failure. testdata/fuzz/FuzzSchedule holds schedules A and B.
func FuzzSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sched := faultline.Decode(data, 3, 2*time.Second)
		sched = slices.DeleteFunc(sched, func(e faultline.Event) bool { return e.Op == faultline.OpRestart })
		s, _ := scheduleWorld(t, sched)
		s.Run(2 * time.Second)
		if rep := safety(s); !rep.Agreement {
			t.Fatalf("schedule %x [%v]: %v", sched.Bytes(), sched, rep.Violations)
		}
	})
}

// firstDelivery records, per directed link, when its first message was
// delivered.
type firstDelivery struct {
	obs.Nop
	at map[[2]int]sim.Time
}

func (d *firstDelivery) OnDeliver(t sim.Time, from, to int, _ obs.Kind) {
	if _, ok := d.at[[2]int{from, to}]; !ok {
		d.at[[2]int{from, to}] = t
	}
}

// TestBuildArmsTheSchedule: a cut at 0 holds back even the boot turn's
// sends, a heal lets the link deliver from its instant, and a crash stops
// its process at its instant — the simulated half of DESIGN.md §10. Every
// process of alltoall sends to every other every η, so each link carries.
func TestBuildArmsTheSchedule(t *testing.T) {
	seen := &firstDelivery{at: map[[2]int]sim.Time{}}
	s, err := Build(Config{N: 3, Seed: 1, Algorithm: AlgoAllToAll, Observer: seen, Schedule: faultline.Schedule{
		{Op: faultline.OpCut, From: 0, To: 1},
		{At: 50 * ms, Op: faultline.OpHeal, From: 0, To: 1},
		{At: 80 * ms, Op: faultline.OpCrash, From: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(200 * ms)
	if at, ok := seen.at[[2]int{0, 1}]; !ok || at < sim.At(50*ms) {
		t.Errorf("0→1 first delivered at %v (%v), want after its heal at 50ms", at, ok)
	}
	if at, ok := seen.at[[2]int{0, 2}]; !ok || at >= sim.At(10*ms) {
		t.Errorf("0→2 first delivered at %v (%v), want within the first η", at, ok)
	}
	if at, ok := s.World.CrashedAt(2); !ok || at != sim.At(80*ms) {
		t.Errorf("p2 crashed at %v (%v), want 80ms", at, ok)
	}
}

// scheduleOutage is Cut(0,1) at a and Cut(1,0) at b, each healed 250 ms
// after it starts.
func scheduleOutage(a, b time.Duration) faultline.Schedule {
	return faultline.Schedule{
		{At: a, Op: faultline.OpCut, From: 0, To: 1},
		{At: b, Op: faultline.OpCut, From: 1, To: 0},
		{At: a + 250*ms, Op: faultline.OpHeal, From: 0, To: 1},
		{At: b + 250*ms, Op: faultline.OpHeal, From: 1, To: 0},
	}
}

var (
	scheduleA = scheduleOutage(40*ms, 80*ms)
	scheduleB = scheduleOutage(80*ms, 200*ms)
)

// TestScheduleCorpusIsAAndB: the fuzz corpus's named files are schedules
// A and B in byte form, so plain go test replays both through the fuzz
// target too.
func TestScheduleCorpusIsAAndB(t *testing.T) {
	for name, want := range map[string]faultline.Schedule{"scheduleA": scheduleA, "scheduleB": scheduleB} {
		file, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzSchedule", name))
		if err != nil {
			t.Fatal(err)
		}
		lit, _ := strings.CutPrefix(strings.Split(string(file), "\n")[1], "[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := faultline.Decode([]byte(data), 3, 2*time.Second); !slices.Equal(got, want) {
			t.Errorf("%s decodes to %v, want %v", name, got, want)
		}
	}
}

// runScheduleWorld runs the schedule world under sched to 30 s and
// returns each replica's FirstGap and the commands it applied twice.
func runScheduleWorld(t *testing.T, sched faultline.Schedule) (gaps []int, twice [][]consensus.Value) {
	s, applied := scheduleWorld(t, sched)
	s.Run(30 * time.Second)
	if rep := safety(s); !rep.Agreement {
		t.Fatalf("safety: %v", rep.Violations)
	}
	for i, log := range s.Logs {
		gaps = append(gaps, log.FirstGap())
		twice = append(twice, nil)
		for k := range 20 {
			if v := consensus.Value(fmt.Sprintf("c%d", k)); applied[i][v] > 1 {
				twice[i] = append(twice[i], v)
			}
		}
	}
	return gaps, twice
}

// TestScheduleAAppliesC5Twice holds what schedule A does today: every
// replica applies c5 twice, and the FirstGaps are 19/20/20. ROADMAP item
// 12 (exactly-once commands) changes this to c5 applied once.
func TestScheduleAAppliesC5Twice(t *testing.T) {
	gaps, twice := runScheduleWorld(t, scheduleA)
	if !slices.Equal(gaps, []int{19, 20, 20}) {
		t.Errorf("FirstGaps = %v, want [19 20 20]", gaps)
	}
	for i, vs := range twice {
		if !slices.Equal(vs, []consensus.Value{"c5"}) {
			t.Errorf("p%d applied %v twice, want [c5] (until ROADMAP item 12)", i, vs)
		}
	}
}

// TestScheduleBLeavesP1Behind holds what schedule B does today: nothing
// is applied twice, and the FirstGaps are 18/17/18 — p1 stays behind for
// good, because a quiet log tells a follower the commit index once.
// ROADMAP item 15(b) (the commit index on the heartbeat) changes this.
func TestScheduleBLeavesP1Behind(t *testing.T) {
	gaps, twice := runScheduleWorld(t, scheduleB)
	if !slices.Equal(gaps, []int{18, 17, 18}) {
		t.Errorf("FirstGaps = %v, want [18 17 18] (until ROADMAP item 15(b))", gaps)
	}
	for i, vs := range twice {
		if len(vs) > 0 {
			t.Errorf("p%d applied %v twice", i, vs)
		}
	}
}
