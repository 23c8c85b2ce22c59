package metrics

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestConcurrentRecordingMatchesSequential drives the sink from one
// goroutine per process — the live-transport shape — with a deterministic
// per-process schedule, then checks every counter and snapshot query
// against a second MessageStats fed the same events sequentially. Run
// under -race this doubles as the data-race check for the sharded record
// path.
func TestConcurrentRecordingMatchesSequential(t *testing.T) {
	const (
		n      = 8
		perOp  = 2000
		window = 0 // default: retain everything, so record queries are exact
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

	concurrent := NewMessageStatsWindow(n, window)
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

	sequential := NewMessageStatsWindow(n, window)
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

	// Record queries: each shard is single-writer, so the retained logs
	// must match the sequential run exactly.
	cSnap, sSnap := concurrent.Snapshot(), sequential.Snapshot()
	horizon := sim.Time(perOp*n + n)
	for _, at := range []sim.Time{0, 17, sim.Time(perOp * n / 2), horizon} {
		cs, ss := cSnap.SendersSince(at), sSnap.SendersSince(at)
		if len(cs) != len(ss) {
			t.Fatalf("SendersSince(%d) = %v, want %v", at, cs, ss)
		}
		for i := range cs {
			if cs[i] != ss[i] {
				t.Fatalf("SendersSince(%d) = %v, want %v", at, cs, ss)
			}
		}
		if got, want := cSnap.LinksUsedSince(at), sSnap.LinksUsedSince(at); got != want {
			t.Errorf("LinksUsedSince(%d) = %d, want %d", at, got, want)
		}
		if got, want := cSnap.MessagesInWindow(at, horizon), sSnap.MessagesInWindow(at, horizon); got != want {
			t.Errorf("MessagesInWindow(%d, %d) = %d, want %d", at, horizon, got, want)
		}
	}
	for p := 0; p < n; p++ {
		if got, want := cSnap.QuietSince(p), sSnap.QuietSince(p); got != want {
			t.Errorf("QuietSince(%d) = %d, want %d", p, got, want)
		}
		cAt, cOK := cSnap.LastSendBy(p)
		sAt, sOK := sSnap.LastSendBy(p)
		if cAt != sAt || cOK != sOK {
			t.Errorf("LastSendBy(%d) = %d,%v, want %d,%v", p, cAt, cOK, sAt, sOK)
		}
	}
}

// TestConcurrentRecordingSmallWindow repeats the concurrent run with a
// window small enough to force eviction on every shard, checking that
// counters stay exact and lastAt-backed queries survive eviction.
func TestConcurrentRecordingSmallWindow(t *testing.T) {
	const (
		n      = 4
		perOp  = 1000
		window = 64
	)
	k := obs.Intern("stress-small-HB")

	concurrent := NewMessageStatsWindow(n, window)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perOp; i++ {
				concurrent.OnSend(sim.Time(i*n+p), p, (p+1)%n, k)
			}
		}()
	}
	wg.Wait()

	if got, want := concurrent.TotalSent(), uint64(n*perOp); got != want {
		t.Errorf("TotalSent = %d, want %d (counters must not be windowed)", got, want)
	}
	snap := concurrent.Snapshot()
	for p := 0; p < n; p++ {
		if got, want := concurrent.SentBy(p), uint64(perOp); got != want {
			t.Errorf("SentBy(%d) = %d, want %d", p, got, want)
		}
		wantLast := sim.Time((perOp-1)*n + p)
		if at, ok := snap.LastSendBy(p); !ok || at != wantLast {
			t.Errorf("LastSendBy(%d) = %d,%v, want %d,true (lastAt must survive eviction)", p, at, ok, wantLast)
		}
	}
	// The retained window holds exactly window records per sender.
	if got, want := snap.MessagesInWindow(0, sim.Time(perOp*n+n)), uint64(n*window); got != want {
		t.Errorf("MessagesInWindow over everything = %d, want %d (window bound)", got, want)
	}
}

// TestSnapshotSharesSealedChunks: a snapshot of a sender with a million
// sends behind it copies the chunk being written and the list of the others
// (it was 16 MB), and what it shares with the recording side is never
// written again — its answers stand while the sender records another
// window's worth and evicts everything the snapshot holds. Run under -race
// this is the data-race check for the sharing.
func TestSnapshotSharesSealedChunks(t *testing.T) {
	const sends = 1_000_000
	k := obs.Intern("stress-shared-HB")
	s := NewMessageStatsWindow(2, sends)
	at := sim.Time(0)
	send := func() {
		for i := 0; i < sends; i++ {
			if i%4 == 0 { // a broadcast of four every 200 µs
				at += 200_000
			}
			s.OnSend(at, 0, 1, k)
		}
	}
	send()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	snap := s.Snapshot()
	runtime.ReadMemStats(&m)
	if got := m.TotalAlloc - before; got >= 16<<10 {
		t.Errorf("a snapshot of %d sends allocated %d bytes, want under 16 KiB", sends, got)
	}

	horizon := at
	type answers struct {
		total, half uint64
		series      []uint64
	}
	ask := func() answers {
		return answers{
			total:  snap.MessagesInWindow(0, horizon+1),
			half:   snap.MessagesInWindow(horizon/2, horizon+1),
			series: snap.Series(time.Duration(horizon/10), horizon),
		}
	}
	want := ask()
	if want.total != sends || want.half != sends/2+4 {
		t.Fatalf("before the sender goes on: %d sends retained, %d in the later half", want.total, want.half)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		send()
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if got := ask(); !reflect.DeepEqual(got, want) {
			t.Fatalf("the snapshot's answers moved while the sender recorded: %+v, want %+v", got, want)
		}
	}
	if got := s.Snapshot().MessagesInWindow(0, horizon+1); got != 0 {
		t.Errorf("the sender still retains %d sends of the first million", got)
	}
}

// TestLinkLastSendNeverMovesBack: several goroutines record interleaved
// instants on one link, as a live ingress and its clients do under one
// id. Whatever order their records land in,
// both the live query and a snapshot must see the link used at the latest
// instant recorded. Run with -race.
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
		if got := s.Snapshot().LinksUsedSince(last); got != 1 {
			t.Fatalf("round %d: snapshot LinksUsedSince(%d) = %d, want 1", r, last, got)
		}
	}
}
