package loop

import "testing"

// ev is a stand-in event; box gives the retention test a real pointer to
// look for in the ring.
type ev struct {
	id  int
	box *[1024]byte
}

func TestMailboxFIFOAcrossGrowth(t *testing.T) {
	m := NewMailbox[ev]()
	const total = 100 // forces several doublings from the initial 16
	for i := 0; i < total; i++ {
		m.Push(ev{id: i})
	}
	got := m.drain(nil, total)
	if len(got) != total {
		t.Fatalf("drained %d events, want %d", len(got), total)
	}
	for i, e := range got {
		if e.id != i {
			t.Fatalf("event %d has id=%d (FIFO order broken)", i, e.id)
		}
	}
}

func TestMailboxFIFOAcrossWrap(t *testing.T) {
	m := NewMailbox[ev]()
	// Interleave pushes and drains so head moves off zero and the ring
	// wraps without growing; a limit below what is pending leaves the
	// rest, in order, for the next drain.
	next, seen := 0, 0
	var batch []ev
	for round := 0; round < 20; round++ {
		for i := 0; i < 11 && next-seen < 16; i++ { // 11 is coprime with the ring size 16
			m.Push(ev{id: next})
			next++
		}
		batch = m.drain(batch[:0], 7)
		if len(batch) > 7 {
			t.Fatalf("drain returned %d events past its limit of 7", len(batch))
		}
		for _, e := range batch {
			if e.id != seen {
				t.Fatalf("got event %d, want %d (FIFO order broken across wrap)", e.id, seen)
			}
			seen++
		}
	}
	if len(m.ring) != 16 {
		t.Fatalf("ring grew to %d: the test no longer wraps", len(m.ring))
	}
	for _, e := range m.drain(nil, next) {
		if e.id != seen {
			t.Fatalf("got event %d, want %d in the final drain", e.id, seen)
		}
		seen++
	}
	if seen != next {
		t.Fatalf("drained %d events, pushed %d", seen, next)
	}
}

// TestMailboxDrainReleasesReferences is the regression test for the old
// pop-based mailbox, which kept consumed events alive in the slice backing
// array. A drained mailbox must hold no references to the events it handed
// out: every ring slot must be the zero event.
func TestMailboxDrainReleasesReferences(t *testing.T) {
	m := NewMailbox[ev]()
	for i := 0; i < 40; i++ {
		m.Push(ev{id: 1, box: new([1024]byte)})
	}
	if got := m.drain(nil, 25); len(got) != 25 {
		t.Fatalf("drained %d events, want 25", len(got))
	}
	if got := m.drain(nil, 25); len(got) != 15 {
		t.Fatalf("drained %d events, want the remaining 15", len(got))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.count != 0 || m.head != 0 {
		t.Fatalf("drained mailbox has count=%d head=%d, want 0 0", m.count, m.head)
	}
	for i, e := range m.ring {
		if e != (ev{}) {
			t.Fatalf("ring slot %d still holds %+v after drain", i, e)
		}
	}
}

func TestMailboxPushAfterCloseIsDropped(t *testing.T) {
	m := NewMailbox[ev]()
	m.Push(ev{id: 1})
	m.Close()
	m.Push(ev{id: 2})
	if !m.Closed() {
		t.Fatal("mailbox not closed")
	}
	if got := m.drain(nil, 10); len(got) != 0 {
		t.Fatalf("closed mailbox drained %d events, want 0", len(got))
	}
}

// TestMailboxPushAllFIFO: batches and single pushes interleave in order,
// across the ring wrapping (drains between them move head off zero) and
// growing (a batch larger than what is free).
func TestMailboxPushAllFIFO(t *testing.T) {
	m := NewMailbox[ev]()
	next, seen := 0, 0
	batch := func(n int) []ev {
		out := make([]ev, n)
		for i := range out {
			out[i] = ev{id: next}
			next++
		}
		return out
	}
	check := func(got []ev) {
		t.Helper()
		for _, e := range got {
			if e.id != seen {
				t.Fatalf("got event %d, want %d (FIFO order broken)", e.id, seen)
			}
			seen++
		}
	}
	m.PushAll(batch(9))
	for round := 0; round < 10; round++ { // 7 in, 7 out, 9 left over: head walks round the ring
		m.PushAll(batch(6))
		m.Push(batch(1)[0])
		check(m.drain(nil, 7))
	}
	if len(m.ring) != 16 || m.head == 0 {
		t.Fatalf("ring %d, head %d: the test no longer wraps", len(m.ring), m.head)
	}
	m.PushAll(batch(5 * len(m.ring))) // several doublings inside one call, from a wrapped ring
	m.PushAll(nil)
	check(m.drain(nil, next))
	if seen != next {
		t.Fatalf("drained %d events, pushed %d", seen, next)
	}
}

// TestMailboxPushAllWakesOnce: a batch is one token on C however long it
// is, an empty one none, and one pushed after Close is dropped.
func TestMailboxPushAllWakesOnce(t *testing.T) {
	m := NewMailbox[ev]()
	m.PushAll(nil)
	if len(m.C) != 0 {
		t.Fatal("an empty batch woke the consumer")
	}
	m.PushAll([]ev{{id: 1}, {id: 2}, {id: 3}})
	if len(m.C) != 1 {
		t.Fatalf("%d tokens on C after one batch, want 1", len(m.C))
	}
	<-m.C
	if got := m.drain(nil, 10); len(got) != 3 {
		t.Fatalf("drained %d events, want the batch of 3", len(got))
	}
	m.Close()
	<-m.C
	m.PushAll([]ev{{id: 4}})
	if got := m.drain(nil, 10); len(got) != 0 || len(m.C) != 0 {
		t.Fatalf("closed mailbox took %d events of a batch and holds %d tokens", len(got), len(m.C))
	}
}

// TestRunCutsTurns: everything queued before the loop wakes is one turn
// with one end-of-turn call after the last event, and a backlog longer
// than MaxTurn is split, in order, into turns of at most MaxTurn.
func TestRunCutsTurns(t *testing.T) {
	for _, k := range []int{1, 10, MaxTurn, MaxTurn + 1, 3*MaxTurn + 5} {
		m := NewMailbox[ev]()
		for i := 0; i < k; i++ {
			m.Push(ev{id: i})
		}
		var turns []int // events per turn
		open, next := 0, 0
		Run(m, func(e ev) {
			if e.id != next {
				t.Fatalf("k=%d: dispatched event %d, want %d", k, e.id, next)
			}
			next++
			open++
		}, func() {
			turns = append(turns, open)
			open = 0
			if next == k {
				m.Close()
			}
		})
		want := (k + MaxTurn - 1) / MaxTurn
		if len(turns) != want {
			t.Fatalf("k=%d: %d turns %v, want %d", k, len(turns), turns, want)
		}
		for i, n := range turns {
			if n > MaxTurn || (i < len(turns)-1 && n != MaxTurn) {
				t.Fatalf("k=%d: turn sizes %v, want full turns of %d then the rest", k, turns, MaxTurn)
			}
		}
	}
}
