package metrics

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

func at(ms int) sim.Time { return sim.At(time.Duration(ms) * time.Millisecond) }

func TestCountsAndKinds(t *testing.T) {
	s := NewMessageStats(3)
	s.OnSend(at(1), 0, 1, obs.Intern("LEADER"))
	s.OnSend(at(2), 0, 2, obs.Intern("LEADER"))
	s.OnSend(at(3), 1, 0, obs.Intern("ACCUSE"))
	s.OnDeliver(at(4), 0, 1, obs.Intern("LEADER"))
	s.OnDrop(at(4), 0, 2, obs.Intern("LEADER"))

	if got := s.TotalSent(); got != 3 {
		t.Fatalf("TotalSent = %d, want 3", got)
	}
	if got := s.Delivered(); got != 1 {
		t.Fatalf("Delivered = %d, want 1", got)
	}
	if got := s.Dropped(); got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
	if got := s.SentBy(0); got != 2 {
		t.Fatalf("SentBy(0) = %d, want 2", got)
	}
	if got := s.LinkCount(0, 1); got != 1 {
		t.Fatalf("LinkCount(0,1) = %d, want 1", got)
	}
	if got := s.KindCount("LEADER"); got != 2 {
		t.Fatalf("KindCount(LEADER) = %d, want 2", got)
	}
	if got := s.KindCount("NONE"); got != 0 {
		t.Fatalf("KindCount(NONE) = %d, want 0", got)
	}
	kinds := s.Kinds()
	if len(kinds) != 2 || kinds[0] != "LEADER" || kinds[1] != "ACCUSE" {
		t.Fatalf("Kinds = %v", kinds)
	}
	if s.N() != 3 {
		t.Fatalf("N = %d", s.N())
	}
}

func TestSendersSince(t *testing.T) {
	s := NewMessageStats(4)
	s.OnSend(at(1), 3, 0, obs.Intern("A"))
	s.OnSend(at(5), 1, 0, obs.Intern("A"))
	s.OnSend(at(10), 2, 0, obs.Intern("A"))
	s.OnSend(at(15), 2, 1, obs.Intern("A"))

	if got := s.Snapshot().SendersSince(at(6)); len(got) != 1 || got[0] != 2 {
		t.Fatalf("SendersSince(6ms) = %v, want [2]", got)
	}
	if got := s.Snapshot().SendersSince(at(5)); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("SendersSince(5ms) = %v, want [1 2]", got)
	}
	if got := s.Snapshot().SendersSince(at(100)); len(got) != 0 {
		t.Fatalf("SendersSince(100ms) = %v, want empty", got)
	}
	if got := s.Snapshot().SendersSince(0); len(got) != 3 {
		t.Fatalf("SendersSince(0) = %v, want 3 senders", got)
	}
}

func TestLinksUsedSince(t *testing.T) {
	s := NewMessageStats(3)
	s.OnSend(at(1), 0, 1, obs.Intern("A"))
	s.OnSend(at(2), 0, 1, obs.Intern("A")) // same link, must not double-count
	s.OnSend(at(3), 0, 2, obs.Intern("A"))
	s.OnSend(at(4), 1, 2, obs.Intern("A"))
	if got := s.LinksUsedSince(0); got != 3 {
		t.Fatalf("LinksUsedSince(0) = %d, want 3", got)
	}
	if got := s.LinksUsedSince(at(3)); got != 2 {
		t.Fatalf("LinksUsedSince(3ms) = %d, want 2", got)
	}
}

// TestLinksUsedSinceSurvivesEviction: the answer comes from the per-link
// last-send instants, not from the retained log, so a window of 64 that
// has evicted all but the last 64 of 10,000 sends still knows every link —
// on the stats and on a snapshot alike. (Answered from the log, as it was,
// link 0→1 is forgotten once 64 later sends to 2 have pushed it out.)
func TestLinksUsedSinceSurvivesEviction(t *testing.T) {
	s := NewMessageStatsWindow(3, 64)
	k := obs.Intern("A")
	s.OnSend(at(0), 1, 0, k) // a send at instant zero is a send
	s.OnSend(at(1), 0, 1, k)
	for i := 2; i < 10000; i++ {
		s.OnSend(at(i), 0, 2, k)
	}
	for _, tc := range []struct {
		since sim.Time
		want  int
	}{{0, 3}, {at(1), 2}, {at(2), 1}, {at(9999), 1}, {at(10000), 0}} {
		if got, snap := s.LinksUsedSince(tc.since), s.Snapshot().LinksUsedSince(tc.since); got != tc.want || snap != tc.want {
			t.Errorf("LinksUsedSince(%v) = %d on the stats, %d on a snapshot, want %d", tc.since, got, snap, tc.want)
		}
	}
}

// BenchmarkLinksUsedSince is what a /metrics scrape pays for its
// active-links gauge with a full default window behind it: a walk over n²
// atomics, no lock, no copy of the send log (0 allocs/op; through
// Snapshot(), as it was, 16 MB a sender).
func BenchmarkLinksUsedSince(b *testing.B) {
	const n = 5
	s := NewMessageStats(n)
	k := obs.Intern("A")
	for i := 0; i < DefaultWindow; i++ {
		s.OnSend(sim.Time(i), 0, 1+i%(n-1), k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.LinksUsedSince(sim.Time(DefaultWindow/2)) != n-1 {
			b.Fatal("wrong answer")
		}
	}
}

func TestQuietSince(t *testing.T) {
	s := NewMessageStats(3)
	s.OnSend(at(1), 1, 0, obs.Intern("A"))
	s.OnSend(at(2), 0, 1, obs.Intern("A"))
	s.OnSend(at(7), 2, 1, obs.Intern("A"))
	s.OnSend(at(9), 0, 1, obs.Intern("A"))
	s.OnSend(at(11), 0, 2, obs.Intern("A"))
	if got := s.Snapshot().QuietSince(0); got != at(7)+1 {
		t.Fatalf("QuietSince(0) = %v, want just after 7ms", got)
	}
	// Process 2 is not quiet: 0 sends after it.
	if got := s.Snapshot().QuietSince(2); got != at(11)+1 {
		t.Fatalf("QuietSince(2) = %v, want just after 11ms", got)
	}
}

func TestQuietSinceNoForeignSends(t *testing.T) {
	s := NewMessageStats(2)
	s.OnSend(at(1), 0, 1, obs.Intern("A"))
	s.OnSend(at(2), 0, 1, obs.Intern("A"))
	if got := s.Snapshot().QuietSince(0); got != 0 {
		t.Fatalf("QuietSince = %v, want 0", got)
	}
}

func TestMessagesInWindow(t *testing.T) {
	s := NewMessageStats(2)
	for ms := 0; ms < 10; ms++ {
		s.OnSend(at(ms), 0, 1, obs.Intern("A"))
	}
	if got := s.Snapshot().MessagesInWindow(at(3), at(7)); got != 4 {
		t.Fatalf("MessagesInWindow = %d, want 4", got)
	}
	if got := s.Snapshot().MessagesInWindow(0, at(100)); got != 10 {
		t.Fatalf("MessagesInWindow(all) = %d, want 10", got)
	}
	if got := s.Snapshot().MessagesInWindow(at(50), at(60)); got != 0 {
		t.Fatalf("MessagesInWindow(empty) = %d, want 0", got)
	}
}

func TestSeries(t *testing.T) {
	s := NewMessageStats(2)
	s.OnSend(at(0), 0, 1, obs.Intern("A"))
	s.OnSend(at(1), 0, 1, obs.Intern("A"))
	s.OnSend(at(12), 1, 0, obs.Intern("A"))
	series := s.Snapshot().Series(10*time.Millisecond, at(29))
	if len(series) != 3 {
		t.Fatalf("len(series) = %d, want 3", len(series))
	}
	if series[0] != 2 || series[1] != 1 || series[2] != 0 {
		t.Fatalf("series = %v, want [2 1 0]", series)
	}
}

func TestSeriesBySender(t *testing.T) {
	s := NewMessageStats(2)
	s.OnSend(at(0), 0, 1, obs.Intern("A"))
	s.OnSend(at(12), 1, 0, obs.Intern("A"))
	s.OnSend(at(13), 1, 0, obs.Intern("A"))
	per := s.Snapshot().SeriesBySender(10*time.Millisecond, at(19))
	if len(per) != 2 {
		t.Fatalf("len = %d", len(per))
	}
	if per[0][0] != 1 || per[0][1] != 0 || per[1][0] != 0 || per[1][1] != 2 {
		t.Fatalf("per-sender series = %v", per)
	}
}

func TestLastSendBy(t *testing.T) {
	s := NewMessageStats(2)
	if _, ok := s.Snapshot().LastSendBy(0); ok {
		t.Fatal("LastSendBy on empty stats reported ok")
	}
	s.OnSend(at(3), 0, 1, obs.Intern("A"))
	s.OnSend(at(8), 0, 1, obs.Intern("A"))
	got, ok := s.Snapshot().LastSendBy(0)
	if !ok || got != at(8) {
		t.Fatalf("LastSendBy = %v,%v want 8ms,true", got, ok)
	}
	if _, ok := s.Snapshot().LastSendBy(1); ok {
		t.Fatal("LastSendBy(1) reported ok for silent process")
	}
}

func TestSeriesPanicsOnBadBucket(t *testing.T) {
	s := NewMessageStats(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Snapshot().Series(0, at(10))
}

func TestSummary(t *testing.T) {
	s := NewMessageStats(2)
	s.OnSend(at(1), 0, 1, obs.Intern("A"))
	if got := s.Summary(); got == "" {
		t.Fatal("empty summary")
	}
}
