package metrics

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// record feeds s one send per offset, in non-decreasing time order (the
// simulator's), from the sender senders[i] names to its successor, calling
// edge before each send with the send's instant. It returns the instants.
func record(s *MessageStats, offsetsMs []uint16, senders []uint8, edge func(sim.Time)) []sim.Time {
	var sent []sim.Time
	at := sim.TimeZero
	for i := 0; i < min(len(offsetsMs), len(senders)); i++ {
		at = at.Add(time.Duration(offsetsMs[i]%50) * time.Millisecond)
		edge(at)
		from := int(senders[i]) % s.N()
		s.OnSend(at, from, (from+1)%s.N(), obs.Intern("X"))
		sent = append(sent, at)
	}
	return sent
}

// TestSeriesPartitionsTheLog is a property test: a series of 10 ms buckets,
// each read as TotalSent at the bucket's end before any send at or after
// it is recorded, counts exactly the sends whose instants fall in the
// bucket, and the per-sender counts sum to TotalSent.
func TestSeriesPartitionsTheLog(t *testing.T) {
	property := func(offsetsMs []uint16, senders []uint8) bool {
		const n, bucket = 4, sim.Time(10 * time.Millisecond)
		s := NewMessageStats(n)
		ends := []uint64{0} // ends[b+1]: sent before bucket b's end
		edge := func(at sim.Time) {
			for sim.Time(len(ends))*bucket <= at {
				ends = append(ends, s.TotalSent())
			}
		}
		sent := record(s, offsetsMs, senders, edge)
		edge(sim.Time(len(ends)) * bucket)
		for b := 0; b+1 < len(ends); b++ {
			var want uint64
			for _, at := range sent {
				if at/bucket == sim.Time(b) {
					want++
				}
			}
			if ends[b+1]-ends[b] != want {
				return false
			}
		}
		var bySender uint64
		for id := 0; id < n; id++ {
			bySender += s.SentBy(id)
		}
		return ends[len(ends)-1] == s.TotalSent() && bySender == s.TotalSent()
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowAdditivity: TotalSent read at mid, before any send at or after
// mid is recorded, counts exactly the sends before mid — so [0, mid) and
// [mid, end) add up to every send, and a send that lands on mid is counted
// in the later window only.
func TestWindowAdditivity(t *testing.T) {
	property := func(offsetsMs []uint16, splitMs uint16) bool {
		s := NewMessageStats(2)
		mid := sim.At(time.Duration(splitMs%1000) * time.Millisecond)
		var atMid uint64
		read := false
		sent := record(s, offsetsMs, make([]uint8, len(offsetsMs)), func(at sim.Time) {
			if !read && at >= mid {
				atMid, read = s.TotalSent(), true
			}
		})
		if !read {
			atMid = s.TotalSent()
		}
		var before uint64
		for _, at := range sent {
			if at < mid {
				before++
			}
		}
		return atMid == before && s.TotalSent() == uint64(len(sent))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
