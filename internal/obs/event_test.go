package obs

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// formed is one agreement an Agreement script is expected to form.
type formed struct {
	at       sim.Time
	leader   int
	downtime time.Duration
}

// TestAgreement is the election rule's one test: telemetry.Collector and
// traceview.Elections both run every leader-change, down and up through
// this type, so what their own tests once pinned separately — and a test
// that checked one copy of the rule against the other — is pinned here.
func TestAgreement(t *testing.T) {
	ms := func(d int) sim.Time { return sim.At(time.Duration(d) * time.Millisecond) }
	lc := func(at, proc, leader int) Event {
		return Event{T: ms(at), What: LeaderChange, Proc: proc, Peer: leader}
	}
	down := func(at, proc int) Event { return Event{T: ms(at), What: Down, Proc: proc, Peer: -1} }
	up := func(at, proc int) Event { return Event{T: ms(at), What: Up, Proc: proc, Peer: -1} }

	cases := []struct {
		name    string
		n       int
		events  []Event
		want    []formed
		leader  int // agreed at the end, -1 for none
		open    sim.Time
		changes int
	}{
		{
			name: "initial election counts from time zero, a re-election from the break",
			n:    3,
			events: []Event{
				lc(10, 0, 0), lc(20, 1, 0), lc(30, 2, 0),
				lc(100, 0, 2), lc(120, 1, 2), lc(160, 2, 2),
				lc(200, 0, 2), // a repeat changes nothing
			},
			want:    []formed{{ms(30), 0, 30 * time.Millisecond}, {ms(160), 2, 60 * time.Millisecond}},
			leader:  2,
			changes: 6,
		},
		{
			name:   "no agreement while one process has no output",
			n:      3,
			events: []Event{lc(10, 0, 0), lc(20, 1, 0)},
			leader: -1, changes: 2,
		},
		{
			name: "a crashed leader opens the downtime at the crash; its frozen output does not block the survivors",
			n:    3,
			events: []Event{
				lc(0, 0, 0), lc(0, 1, 0), lc(0, 2, 0),
				down(1000, 0), down(1000, 0), // idempotent
				lc(1300, 1, 1), lc(1500, 2, 1),
			},
			want:    []formed{{ms(0), 0, 0}, {ms(1500), 1, 500 * time.Millisecond}},
			leader:  1,
			changes: 5,
		},
		{
			name:    "a crashed non-leader keeps the agreement",
			n:       3,
			events:  []Event{lc(0, 0, 0), lc(0, 1, 0), lc(0, 2, 0), down(5, 2)},
			want:    []formed{{ms(0), 0, 0}},
			leader:  0,
			changes: 3,
		},
		{
			name: "a rejoined process withholds agreement until it has an output again",
			n:    3,
			events: []Event{
				lc(10, 0, 0), lc(10, 1, 0), lc(10, 2, 0),
				down(20, 2),
				up(30, 2), up(30, 2), // idempotent
				lc(45, 2, 0),
			},
			want:    []formed{{ms(10), 0, 10 * time.Millisecond}, {ms(45), 0, 15 * time.Millisecond}},
			leader:  0,
			changes: 4,
		},
		{
			// The script the collector and traceview were once checked
			// against each other on: leader crash, re-election, rejoin.
			name: "leader crash, re-election, rejoin",
			n:    3,
			events: []Event{
				lc(10, 0, 2), lc(20, 1, 2), lc(30, 2, 2),
				down(100, 2), lc(120, 0, 0), lc(147, 1, 0),
				up(200, 2), lc(260, 2, 0),
			},
			want: []formed{
				{ms(30), 2, 30 * time.Millisecond},
				{ms(147), 0, 47 * time.Millisecond},
				{ms(260), 0, 60 * time.Millisecond},
			},
			leader:  0,
			changes: 6,
		},
		{
			name:    "a lone survivor naming a dead process is no agreement",
			n:       2,
			events:  []Event{lc(5, 0, 0), lc(5, 1, 0), down(9, 1), lc(9, 0, 1), up(9, 0)},
			want:    []formed{{ms(5), 0, 5 * time.Millisecond}},
			leader:  -1, // p0 alone outputs p1, which is down
			open:    ms(9),
			changes: 3,
		},
		{
			name:    "every live process moving in lockstep is an election without downtime",
			n:       1,
			events:  []Event{lc(5, 0, 0), lc(8, 0, 3)},
			want:    []formed{{ms(5), 0, 5 * time.Millisecond}, {ms(8), 3, 0}},
			leader:  3,
			changes: 2,
		},
		{
			name: "what the tracker does not track changes nothing",
			n:    2,
			events: []Event{
				lc(1, 0, 1), lc(2, 1, 1),
				{T: ms(3), What: Decide, Proc: 0}, {T: ms(3), What: Note, Proc: 1},
				down(4, 7), lc(4, -1, 0), // out of range
				lc(5, 0, -1), // an output withdrawn is no change to a leader, and breaks agreement
			},
			want:    []formed{{ms(2), 1, 2 * time.Millisecond}},
			leader:  -1,
			open:    ms(5),
			changes: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAgreement(tc.n)
			if since, open := a.Open(); !open || since != 0 || a.Leader() != -1 {
				t.Fatalf("a fresh tracker must be open since time zero, got %v/%v leader %d", since, open, a.Leader())
			}
			var got []formed
			for _, e := range tc.events {
				if d, ok := a.Feed(e); ok {
					got = append(got, formed{e.T, a.Leader(), d})
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("formed %v, want %v", got, tc.want)
			}
			if a.Leader() != tc.leader || a.Changes != tc.changes {
				t.Errorf("ended with leader %d after %d changes, want %d after %d", a.Leader(), a.Changes, tc.leader, tc.changes)
			}
			if since, open := a.Open(); open != (tc.leader < 0) || open && since != tc.open {
				t.Errorf("Open = %v/%v, want %v/%v", since, open, tc.open, tc.leader < 0)
			}
		})
	}
}

// eventSink records the events a Tee member receives.
type eventSink struct {
	Nop
	events []Event
}

func (s *eventSink) OnEvent(e Event) { s.events = append(s.events, e) }

func TestTeeForwardsEventsToThoseWhoTakeThem(t *testing.T) {
	plain, a, b := &sendsOnly{}, &eventSink{}, &eventSink{}
	e := Event{T: 7, What: Down, Proc: 2, Peer: -1}
	Tee(plain, a, nil, b).OnEvent(e)
	for _, s := range []*eventSink{a, b} {
		if len(s.events) != 1 || s.events[0] != e {
			t.Fatalf("member saw %v, want [%v]", s.events, e)
		}
	}
	if plain.sends != 0 {
		t.Fatal("an event must not reach message counters")
	}
}

func TestWhatNames(t *testing.T) {
	names := map[What]string{
		LeaderChange: "leader-change", Down: "down", Up: "up", Decide: "decide", Flush: "flush",
		WALAppend: "wal-append", WALFsync: "wal-fsync", WALRecover: "wal-recover", Note: "note",
		0: "?", What(200): "?",
	}
	for w, want := range names {
		if got := w.String(); got != want {
			t.Fatalf("What(%d).String() = %q, want %q", w, got, want)
		}
	}
}
