package consensus

import (
	"testing"
	"testing/quick"

	"repro/internal/node"
)

func TestBallotArithmetic(t *testing.T) {
	const n = 5
	b := MakeBallot(0, 2, n)
	if b != 3 {
		t.Fatalf("MakeBallot(0,2,5) = %d, want 3", b)
	}
	if b.Owner(n) != 2 {
		t.Fatalf("Owner = %v", b.Owner(n))
	}
	if b.Round(n) != 0 {
		t.Fatalf("Round = %d", b.Round(n))
	}
	b2 := MakeBallot(3, 4, n)
	if b2.Owner(n) != 4 || b2.Round(n) != 3 {
		t.Fatalf("round 3 owner 4: got owner %v round %d", b2.Owner(n), b2.Round(n))
	}
	if NoBallot.Owner(n) != node.None || NoBallot.Round(n) != -1 {
		t.Fatal("NoBallot owner/round")
	}
	if NoBallot.String() != "⊥" || b.String() == "" {
		t.Fatal("String rendering")
	}
}

func TestBallotNextProperties(t *testing.T) {
	property := func(rawB uint64, rawID uint8, rawN uint8) bool {
		n := int(rawN%16) + 2
		id := node.ID(int(rawID) % n)
		b := Ballot(rawB % 1_000_000)
		next := b.Next(id, n)
		if next <= b {
			return false
		}
		if next.Owner(n) != id {
			return false
		}
		// Minimality: the ballot one round earlier with the same owner
		// must not also beat b.
		if r := next.Round(n); r > 0 {
			if prev := MakeBallot(r-1, id, n); prev > b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBallotOwnersNeverCollide(t *testing.T) {
	const n = 7
	seen := make(map[Ballot]node.ID)
	for round := 0; round < 20; round++ {
		for id := 0; id < n; id++ {
			b := MakeBallot(round, node.ID(id), n)
			if other, ok := seen[b]; ok {
				t.Fatalf("ballot %v owned by both %v and %v", b, other, id)
			}
			seen[b] = node.ID(id)
			if b.Owner(n) != node.ID(id) {
				t.Fatalf("Owner(%v) = %v, want %v", b, b.Owner(n), id)
			}
		}
	}
}

func TestMajority(t *testing.T) {
	cases := map[int]int{2: 2, 3: 2, 4: 3, 5: 3, 6: 4, 7: 4}
	for n, want := range cases {
		if got := Majority(n); got != want {
			t.Fatalf("Majority(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	r.RecordInstance(0, "a", 0, 1, nil)
	r.RecordInstance(0, "b", 0, 1, nil) // ignored repeat
	r.RecordInstance(1, "c", 0, 1, nil)
	if r.Count() != 2 {
		t.Fatalf("Count = %d", r.Count())
	}
	d, ok := r.Get(0)
	if !ok || d.Value != "a" {
		t.Fatalf("Get(0) = %+v,%v", d, ok)
	}
	if _, ok := r.Get(2); ok {
		t.Fatal("Get(2) found a decision")
	}
	all := r.All()
	if len(all) != 2 || all[0].Value != "a" || all[1].Value != "c" {
		t.Fatalf("All = %v", all)
	}
}

func TestRecorderKeysPerCommand(t *testing.T) {
	r := newSplitRecorder()
	// One batched instance deciding three commands: each slot reads back
	// on its own, and a repeat of the instance is still ignored.
	r.RecordInstance(0, testPack("a", "b", "c"), 0, 0, nil)
	r.RecordInstance(0, testPack("a", "z", "c"), 0, 0, nil) // ignored repeat
	if r.Count() != 3 {
		t.Fatalf("Count = %d, want 3", r.Count())
	}
	if d, ok := r.GetCmd(0, 1); !ok || d.Value != "b" {
		t.Fatalf("GetCmd(0,1) = %+v,%v", d, ok)
	}
	if d, ok := r.Get(0); !ok || d.Value != "a" {
		t.Fatalf("Get(0) = %+v,%v — want the cmd-0 decision", d, ok)
	}
	if _, ok := r.GetCmd(0, 3); ok {
		t.Fatal("GetCmd(0,3) found a decision")
	}
}

// recorded returns a Recorder holding vs as the instances from base up, in
// the tests' batch format.
func recorded(base int, vs ...Value) *Recorder {
	r := newSplitRecorder()
	for i, v := range vs {
		r.RecordInstance(base+i, v, 0, 0, nil)
	}
	return r
}

func TestCheckSafetyPerCommandAgreement(t *testing.T) {
	// Same batch envelope shape, but the processes disagree on the command
	// in slot 1 — per-instance checking would miss this. The second pair
	// began at different instances, as a replica restored from a snapshot
	// does, and disagrees in one slot of the instances both hold.
	for _, tc := range []struct {
		r0, r1               *Recorder
		instances, decisions int
		want                 string
	}{
		{recorded(0, testPack("a", "b")), recorded(0, testPack("a", "x")), 1, 4,
			`instance 0 cmd 1: p1 decided "x" but "b" was decided elsewhere`},
		{recorded(5, "p", testPack("q", "r"), "s"), recorded(6, testPack("q", "x"), "s"), 3, 7,
			`instance 6 cmd 1: p1 decided "x" but "r" was decided elsewhere`},
	} {
		rep := CheckSafety(SafetyInput{Recorders: []*Recorder{tc.r0, tc.r1}})
		if rep.Agreement || len(rep.Violations) != 1 || rep.Violations[0] != tc.want {
			t.Fatalf("per-command disagreement: %q, want %q alone", rep.Violations, tc.want)
		}
		if rep.Instances != tc.instances || rep.TotalDecisions != tc.decisions {
			t.Fatalf("Instances=%d TotalDecisions=%d, want %d and %d", rep.Instances, rep.TotalDecisions, tc.instances, tc.decisions)
		}
	}
}

func TestCheckSafetyNoopIsAlwaysValid(t *testing.T) {
	// Gap fillers are proposed by the protocol, not a client; validity
	// must not flag them.
	rep := CheckSafety(SafetyInput{
		Recorders: []*Recorder{recorded(0, Noop, "a")},
		Proposed:  map[int][]Value{1: {"a"}},
	})
	if !rep.Holds() {
		t.Fatalf("noop flagged: %v", rep.Violations)
	}
}

func TestCheckSafetyAgreementViolation(t *testing.T) {
	rep := CheckSafety(SafetyInput{Recorders: []*Recorder{recorded(0, "x"), recorded(0, "y")}})
	if rep.Agreement || rep.Holds() {
		t.Fatal("agreement violation not caught")
	}
	if len(rep.Violations) == 0 {
		t.Fatal("no violation message")
	}
}

func TestCheckSafetyValidity(t *testing.T) {
	r0 := recorded(0, "ghost")
	rep := CheckSafety(SafetyInput{
		Recorders: []*Recorder{r0},
		Proposed:  map[int][]Value{0: {"a", "b"}},
	})
	if rep.Validity {
		t.Fatal("validity violation not caught")
	}
	ok := CheckSafety(SafetyInput{
		Recorders: []*Recorder{r0},
		Proposed:  map[int][]Value{0: {"ghost"}},
	})
	if !ok.Holds() {
		t.Fatalf("valid run rejected: %v", ok.Violations)
	}
}

func TestCheckSafetyCountsInstances(t *testing.T) {
	// p1 holds instances 2 to 4 of p0's five, p2 none of them: an instance
	// counts once, a decision once per process that holds it.
	r0, r1 := recorded(0, "a", "b", "c", "d", "e"), recorded(2, "c", "d", "e")
	rep := CheckSafety(SafetyInput{Recorders: []*Recorder{r0, r1, nil}})
	if !rep.Holds() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Instances != 5 || rep.TotalDecisions != 8 {
		t.Fatalf("Instances=%d TotalDecisions=%d", rep.Instances, rep.TotalDecisions)
	}
}

func TestStaticLeader(t *testing.T) {
	var l Leadership = StaticLeader(3)
	if l.Leader() != 3 {
		t.Fatal("StaticLeader")
	}
}
