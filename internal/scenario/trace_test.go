package scenario

import (
	"strings"
	"testing"
	"time"

	"repro/internal/faultline"
	"repro/internal/tracing"
)

// named returns the marks of the log with the given name.
func named(marks []tracing.SpanJSON, name string) []tracing.SpanJSON {
	var out []tracing.SpanJSON
	for _, m := range marks {
		if m.Name == name {
			out = append(out, m)
		}
	}
	return out
}

// TestTraceCapturesTheRunStory: with tracing on, a scenario's event log
// contains sends, deliveries, the crash, and the leader-change notes —
// everything omegasim -trace prints.
func TestTraceCapturesTheRunStory(t *testing.T) {
	s, err := Build(Config{
		N: 3, Seed: 5, EnableTrace: true,
		Schedule: faultline.Schedule{{At: 200 * time.Millisecond, Op: faultline.OpCrash, From: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(time.Second)

	entries := s.Trace.Marks()
	if len(named(entries, "SEND")) == 0 {
		t.Fatal("no SEND entries")
	}
	if len(named(entries, "DELIVER")) == 0 {
		t.Fatal("no DELIVER entries")
	}
	crashes := named(entries, "down")
	if len(crashes) != 1 || crashes[0].Proc != 0 {
		t.Fatalf("crash entries = %v", crashes)
	}
	var sawLeaderNote bool
	for _, e := range named(entries, "note") {
		if strings.Contains(e.Note, "leader") {
			sawLeaderNote = true
			break
		}
	}
	if !sawLeaderNote {
		t.Fatal("no leader-change notes in trace")
	}
	// Entries are time-ordered.
	for i := 1; i < len(entries); i++ {
		if entries[i].StartNS < entries[i-1].StartNS {
			t.Fatalf("trace out of order at %d", i)
		}
	}
}

// TestTraceOffByDefault keeps benchmark runs lean.
func TestTraceOffByDefault(t *testing.T) {
	s, err := Build(Config{N: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(200 * time.Millisecond)
	if s.Trace != nil {
		t.Fatalf("trace recorded %d entries with tracing off", len(s.Trace.Marks()))
	}
}
