package faultline

import (
	"slices"
	"testing"
	"time"

	"repro/internal/node"
)

// FuzzDecode: every input decodes to a valid schedule, and the byte form
// of a decoded schedule decodes back to it.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{}, uint8(3))
	f.Add([]byte{0, 0, 0, 0, 40, 1, 7, 7, 0xff, 0xff, 2}, uint8(2))
	f.Add(Schedule{{At: 80 * time.Millisecond, Op: OpCrash, From: 4}, {At: 10 * time.Millisecond, Op: OpCut, From: 1, To: 3}}.Bytes(), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, size uint8) {
		n := 2 + int(size)%7
		s := Decode(data, n, 2*time.Second)
		if err := s.Validate(n); err != nil {
			t.Fatalf("Decode(%x, %d) = %v: %v", data, n, s, err)
		}
		if len(s) != len(data)/5 {
			t.Fatalf("Decode(%x) has %d events, want %d", data, len(s), len(data)/5)
		}
		if again := Decode(s.Bytes(), n, 2*time.Second); !slices.Equal(again, s) {
			t.Fatalf("Decode(Bytes(%v)) = %v", s, again)
		}
	})
}

func TestScheduleBytesAndString(t *testing.T) {
	const ms = time.Millisecond
	s := Schedule{
		{At: 40 * ms, Op: OpCut, From: 0, To: 1},
		{At: 80 * ms, Op: OpCrash, From: 2},
		{At: 290 * ms, Op: OpHeal, From: 0, To: 1},
	}
	if got := Decode(s.Bytes(), 3, time.Minute); !slices.Equal(got, s) {
		t.Fatalf("round trip = %v, want %v", got, s)
	}
	if got, want := s.String(), "cut(0,1)@40ms crash(2)@80ms heal(0,1)@290ms"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	// Out of range: the op and ids wrap, a self-link moves on, the time
	// clamps, and the events come out in time order.
	got := Decode([]byte{5, 4, 1, 0, 200, 0, 3, 9, 0, 100}, 3, 150*ms)
	want := Schedule{{At: 100 * ms, Op: OpCut, From: 0, To: 1}, {At: 150 * ms, Op: OpHeal, From: 1, To: 2}}
	if !slices.Equal(got, want) {
		t.Fatalf("Decode wrapped to %v, want %v", got, want)
	}
}

// TestTransmitFollowsScheduledCuts: a scheduled cut drops what its link
// carries from its offset until the link's next heal, leaves the reverse
// link alone, and outlasts an imperative Heal.
func TestTransmitFollowsScheduledCuts(t *testing.T) {
	const ms = time.Millisecond
	inj, err := New(3, 1, Plan{Schedule: Schedule{
		{At: 10 * ms, Op: OpCut, From: 0, To: 1},
		{At: 20 * ms, Op: OpHeal, From: 0, To: 1},
		{At: 30 * ms, Op: OpCut, From: 0, To: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Heal()
	for _, c := range []struct {
		at   time.Duration
		from int
		ok   bool
	}{{5 * ms, 0, true}, {10 * ms, 0, false}, {15 * ms, 1, true}, {19 * ms, 0, false}, {20 * ms, 0, true}, {time.Minute, 0, false}} {
		if _, ok := inj.Transmit(node.ID(c.from), node.ID(1-c.from), c.at); ok != c.ok {
			t.Errorf("%d→%d at %v: delivered = %v, want %v", c.from, 1-c.from, c.at, ok, c.ok)
		}
	}
}
