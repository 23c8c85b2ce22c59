package metrics

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestSeriesPartitionsTheLog is a property test: for any send log, the
// bucketed series partitions it — bucket counts sum to the total number of
// sends within the horizon, and per-sender series sum to SentBy.
func TestSeriesPartitionsTheLog(t *testing.T) {
	property := func(offsetsMs []uint16, senders []uint8) bool {
		const n = 4
		s := NewMessageStats(n)
		limit := len(offsetsMs)
		if len(senders) < limit {
			limit = len(senders)
		}
		// Sends must be appended in non-decreasing time order (the
		// simulator guarantees this); sort by accumulating offsets.
		at := sim.TimeZero
		total := 0
		for i := 0; i < limit; i++ {
			at = at.Add(time.Duration(offsetsMs[i]%50) * time.Millisecond)
			from := int(senders[i]) % n
			to := (from + 1) % n
			s.OnSend(at, from, to, obs.Intern("X"))
			total++
		}
		horizon := at.Add(time.Millisecond)
		series := s.Snapshot().Series(10*time.Millisecond, horizon)
		var sum uint64
		for _, c := range series {
			sum += c
		}
		if sum != uint64(total) {
			return false
		}
		perSender := s.Snapshot().SeriesBySender(10*time.Millisecond, horizon)
		for id := 0; id < n; id++ {
			var got uint64
			for _, c := range perSender[id] {
				got += c
			}
			if got != s.SentBy(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowAdditivity: message counts over adjacent windows add up.
func TestWindowAdditivity(t *testing.T) {
	property := func(offsetsMs []uint16, splitMs uint16) bool {
		s := NewMessageStats(2)
		at := sim.TimeZero
		for _, off := range offsetsMs {
			at = at.Add(time.Duration(off%50) * time.Millisecond)
			s.OnSend(at, 0, 1, obs.Intern("X"))
		}
		end := at.Add(time.Millisecond)
		mid := sim.At(time.Duration(splitMs) * time.Millisecond)
		if mid > end {
			mid = end
		}
		left := s.Snapshot().MessagesInWindow(0, mid)
		right := s.Snapshot().MessagesInWindow(mid, end)
		return left+right == s.Snapshot().MessagesInWindow(0, end)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
