package metrics

import (
	"fmt"
	"slices"
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

	if got := s.SendersSince(at(6)); len(got) != 1 || got[0] != 2 {
		t.Fatalf("SendersSince(6ms) = %v, want [2]", got)
	}
	if got := s.SendersSince(at(5)); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("SendersSince(5ms) = %v, want [1 2]", got)
	}
	if got := s.SendersSince(at(100)); len(got) != 0 {
		t.Fatalf("SendersSince(100ms) = %v, want empty", got)
	}
	if got := s.SendersSince(0); len(got) != 3 {
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
// last-send instants, which nothing evicts: after one send on 1→0 and one
// on 0→1, ten thousand later sends on 0→2 leave both links known at their
// own instants.
func TestLinksUsedSinceSurvivesEviction(t *testing.T) {
	s := NewMessageStats(3)
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
		if got := s.LinksUsedSince(tc.since); got != tc.want {
			t.Errorf("LinksUsedSince(%v) = %d, want %d", tc.since, got, tc.want)
		}
	}
}

// BenchmarkLinksUsedSince is what a /metrics scrape pays for its
// active-links gauge after a million sends: a walk over n² atomics, no
// lock (0 allocs/op).
func BenchmarkLinksUsedSince(b *testing.B) {
	const n, sends = 5, 1 << 20
	s := NewMessageStats(n)
	k := obs.Intern("A")
	for i := 0; i < sends; i++ {
		s.OnSend(sim.Time(i), 0, 1+i%(n-1), k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.LinksUsedSince(sim.Time(sends/2)) != n-1 {
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
	if got := s.QuietSince(0); got != at(7)+1 {
		t.Fatalf("QuietSince(0) = %v, want just after 7ms", got)
	}
	// Process 2 is not quiet: 0 sends after it.
	if got := s.QuietSince(2); got != at(11)+1 {
		t.Fatalf("QuietSince(2) = %v, want just after 11ms", got)
	}
}

func TestQuietSinceNoForeignSends(t *testing.T) {
	s := NewMessageStats(2)
	s.OnSend(at(1), 0, 1, obs.Intern("A"))
	s.OnSend(at(2), 0, 1, obs.Intern("A"))
	if got := s.QuietSince(0); got != 0 {
		t.Fatalf("QuietSince = %v, want 0", got)
	}
}

// TestWindowCountAtEdges: a window's message count is TotalSent read at its
// two edges, each read once every send before that edge is recorded and
// none at or after it: [3ms, 7ms) of one send a millisecond holds four.
func TestWindowCountAtEdges(t *testing.T) {
	s := NewMessageStats(2)
	edges := map[sim.Time]uint64{}
	for ms := 0; ms < 10; ms++ {
		edges[at(ms)] = s.TotalSent()
		s.OnSend(at(ms), 0, 1, obs.Intern("A"))
	}
	edges[at(100)] = s.TotalSent()
	for _, tc := range []struct {
		from, to sim.Time
		want     uint64
	}{{at(3), at(7), 4}, {0, at(100), 10}, {at(9), at(100), 1}, {at(5), at(5), 0}} {
		if got := edges[tc.to] - edges[tc.from]; got != tc.want {
			t.Errorf("[%v, %v) holds %d, want %d", tc.from, tc.to, got, tc.want)
		}
	}
}

func TestLastSendBy(t *testing.T) {
	s := NewMessageStats(2)
	if _, ok := s.LastSendBy(0); ok {
		t.Fatal("LastSendBy on empty stats reported ok")
	}
	s.OnSend(at(3), 0, 1, obs.Intern("A"))
	s.OnSend(at(8), 0, 1, obs.Intern("A"))
	got, ok := s.LastSendBy(0)
	if !ok || got != at(8) {
		t.Fatalf("LastSendBy = %v,%v want 8ms,true", got, ok)
	}
	if _, ok := s.LastSendBy(1); ok {
		t.Fatal("LastSendBy(1) reported ok for silent process")
	}
}

// TestOnSendAllocatesNothing: a fresh MessageStats records its first send,
// of a kind it has never seen, without allocating, and so does every later
// send — nothing it keeps grows with the sends.
func TestOnSendAllocatesNothing(t *testing.T) {
	const runs = 100
	kind := obs.Intern("alloc-X")
	fresh := make([]*MessageStats, runs+1) // AllocsPerRun warms up once
	for i := range fresh {
		fresh[i] = NewMessageStats(3)
	}
	i := 0
	if got := testing.AllocsPerRun(runs, func() {
		fresh[i].OnSend(at(1), 0, 1, kind)
		i++
	}); got != 0 {
		t.Errorf("first OnSend: %v allocs, want 0", got)
	}
	s := fresh[0]
	if got := testing.AllocsPerRun(1000, func() {
		i++
		s.OnSend(at(i), i%3, (i+1)%3, kind)
	}); got != 0 {
		t.Errorf("later OnSend: %v allocs, want 0", got)
	}
}

func TestSummary(t *testing.T) {
	s := NewMessageStats(2)
	s.OnSend(at(1), 0, 1, obs.Intern("A"))
	if got := s.Summary(); got == "" {
		t.Fatal("empty summary")
	}
}

// TestKindInternedAfterBuildCountsExactly: the per-kind counters cover the
// kinds interned when the stats were built; a kind interned later is
// counted exactly all the same, by every sender, in first-seen order.
func TestKindInternedAfterBuildCountsExactly(t *testing.T) {
	early := obs.Intern("late-test-early")
	s := NewMessageStats(3)
	name := fmt.Sprintf("late-test-%d", obs.NumKinds()) // new on every -count
	late := obs.Intern(name)
	if int(late) < len(s.firstSeen) {
		t.Fatalf("kind %d was interned before the stats were built", late)
	}
	s.OnSend(at(1), 2, 0, late)
	s.OnSend(at(2), 0, 1, early)
	for i := 0; i < 5; i++ {
		s.OnSend(at(3+i), i%3, (i+1)%3, late)
	}
	if got := s.KindCount(name); got != 6 {
		t.Errorf("KindCount(late) = %d, want 6", got)
	}
	if got := s.SentByKind(2, name); got != 2 {
		t.Errorf("SentByKind(2, late) = %d, want 2", got)
	}
	if got := s.KindCount("late-test-early"); got != 1 {
		t.Errorf("KindCount(early) = %d, want 1", got)
	}
	if got := s.Kinds(); !slices.Equal(got, []string{name, "late-test-early"}) {
		t.Errorf("Kinds() = %v, want [%s late-test-early]", got, name)
	}
}
