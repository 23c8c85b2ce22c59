package metrics

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestConcurrentRecordingMatchesSequential drives the sink from one
// goroutine per process — the live-transport shape — with a deterministic
// per-process schedule, then checks every counter and query against a
// second MessageStats fed the same events sequentially. Run under -race
// this doubles as the data-race check for the sharded record path.
func TestConcurrentRecordingMatchesSequential(t *testing.T) {
	const (
		n     = 8
		perOp = 2000
	)
	kinds := []obs.Kind{
		obs.Intern("stress-HB"),
		obs.Intern("stress-ACCUSE"),
		obs.Intern("stress-OK"),
	}

	// schedule returns the i-th operation of process p. Deterministic and
	// pure, so the concurrent and sequential runs see identical events.
	type op struct {
		send     bool // else: i%7==0 drop, otherwise deliver
		drop     bool
		at       sim.Time
		from, to int
		kind     obs.Kind
	}
	schedule := func(p, i int) op {
		to := (p + 1 + i%(n-1)) % n
		o := op{
			at:   sim.Time(i*n + p), // distinct, increasing per process
			from: p,
			to:   to,
			kind: kinds[(p+i)%len(kinds)],
		}
		switch i % 7 {
		case 0:
			o.drop = true
		case 1, 2:
			// deliver only
		default:
			o.send = true
		}
		return o
	}
	apply := func(s *MessageStats, o op) {
		switch {
		case o.send:
			s.OnSend(o.at, o.from, o.to, o.kind)
		case o.drop:
			s.OnDrop(o.at, o.from, o.to, o.kind)
		default:
			s.OnDeliver(o.at, o.from, o.to, o.kind)
		}
	}

	concurrent := NewMessageStats(n)
	// A kind interned after concurrent was built (before sequential was):
	// its counts race into the table made on its first send.
	kinds = append(kinds, obs.Intern(fmt.Sprintf("stress-late-%d", obs.NumKinds())))
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perOp; i++ {
				apply(concurrent, schedule(p, i))
			}
		}()
	}
	wg.Wait()

	sequential := NewMessageStats(n)
	for p := 0; p < n; p++ {
		for i := 0; i < perOp; i++ {
			apply(sequential, schedule(p, i))
		}
	}

	if got, want := concurrent.TotalSent(), sequential.TotalSent(); got != want {
		t.Errorf("TotalSent = %d, want %d", got, want)
	}
	if got, want := concurrent.Delivered(), sequential.Delivered(); got != want {
		t.Errorf("Delivered = %d, want %d", got, want)
	}
	if got, want := concurrent.Dropped(), sequential.Dropped(); got != want {
		t.Errorf("Dropped = %d, want %d", got, want)
	}
	for p := 0; p < n; p++ {
		if got, want := concurrent.SentBy(p), sequential.SentBy(p); got != want {
			t.Errorf("SentBy(%d) = %d, want %d", p, got, want)
		}
		for q := 0; q < n; q++ {
			if got, want := concurrent.LinkCount(p, q), sequential.LinkCount(p, q); got != want {
				t.Errorf("LinkCount(%d,%d) = %d, want %d", p, q, got, want)
			}
		}
	}
	for _, k := range kinds {
		name := obs.KindName(k)
		if got, want := concurrent.KindCount(name), sequential.KindCount(name); got != want {
			t.Errorf("KindCount(%q) = %d, want %d", name, got, want)
		}
	}

	// Kinds(): first-seen order is scheduling-dependent under concurrency,
	// so compare as sets.
	cKinds, sKinds := concurrent.Kinds(), sequential.Kinds()
	if len(cKinds) != len(sKinds) {
		t.Fatalf("Kinds() lengths differ: %v vs %v", cKinds, sKinds)
	}
	set := make(map[string]bool, len(sKinds))
	for _, k := range sKinds {
		set[k] = true
	}
	for _, k := range cKinds {
		if !set[k] {
			t.Errorf("Kinds() contains unexpected %q", k)
		}
	}

	// Instant queries: each process sends from its own goroutine, so every
	// link's last instant must match the sequential run exactly.
	horizon := sim.Time(perOp*n + n)
	for _, at := range []sim.Time{0, 17, sim.Time(perOp * n / 2), horizon} {
		cs, ss := concurrent.SendersSince(at), sequential.SendersSince(at)
		if len(cs) != len(ss) {
			t.Fatalf("SendersSince(%d) = %v, want %v", at, cs, ss)
		}
		for i := range cs {
			if cs[i] != ss[i] {
				t.Fatalf("SendersSince(%d) = %v, want %v", at, cs, ss)
			}
		}
		if got, want := concurrent.LinksUsedSince(at), sequential.LinksUsedSince(at); got != want {
			t.Errorf("LinksUsedSince(%d) = %d, want %d", at, got, want)
		}
	}
	for p := 0; p < n; p++ {
		if got, want := concurrent.QuietSince(p), sequential.QuietSince(p); got != want {
			t.Errorf("QuietSince(%d) = %d, want %d", p, got, want)
		}
		cAt, cOK := concurrent.LastSendBy(p)
		sAt, sOK := sequential.LastSendBy(p)
		if cAt != sAt || cOK != sOK {
			t.Errorf("LastSendBy(%d) = %d,%v, want %d,%v", p, cAt, cOK, sAt, sOK)
		}
	}
}

// TestConcurrentRecordingSmallWindow counts small windows of a live run:
// one goroutine a process sends a round of per messages, and between rounds
// every sender is parked, so TotalSent read there is the round's edge.
// Each window's count must be exactly its round's sends, and each
// sender's last instant must be the one it sent last.
func TestConcurrentRecordingSmallWindow(t *testing.T) {
	const (
		n      = 4
		per    = 64
		rounds = 16
	)
	k := obs.Intern("stress-small-HB")
	s := NewMessageStats(n)
	edge := s.TotalSent()
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for p := 0; p < n; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					s.OnSend(sim.Time((r*per+i)*n+p), p, (p+1)%n, k)
				}
			}(p)
		}
		wg.Wait()
		next := s.TotalSent()
		if got := next - edge; got != n*per {
			t.Errorf("round %d: window holds %d sends, want %d", r, got, n*per)
		}
		edge = next
		for p := 0; p < n; p++ {
			wantLast := sim.Time(((r+1)*per-1)*n + p)
			if at, ok := s.LastSendBy(p); !ok || at != wantLast {
				t.Errorf("round %d: LastSendBy(%d) = %d,%v, want %d,true", r, p, at, ok, wantLast)
			}
		}
	}
}

// TestLinkLastSendNeverMovesBack: several goroutines record interleaved
// instants on one link, as a live ingress and its clients do under one
// id. Whatever order their records land in, the query must see the link
// used at the latest instant recorded. Run with -race.
func TestLinkLastSendNeverMovesBack(t *testing.T) {
	const (
		senders = 8
		per     = 64
		rounds  = 300
	)
	k := obs.Intern("stress-link-HB")
	s := NewMessageStats(2)
	for r := 0; r < rounds; r++ {
		base := r * senders * per
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					s.OnSend(sim.Time(base+i*senders+g), 0, 1, k)
				}
			}(g)
		}
		wg.Wait()
		last := sim.Time(base + senders*per - 1)
		if got := s.LinksUsedSince(last); got != 1 {
			t.Fatalf("round %d: LinksUsedSince(%d) = %d, want 1", r, last, got)
		}
	}
}
