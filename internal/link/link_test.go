package link

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// frame builds a pooled length-prefixed frame holding payload.
func frame(p *Pool, payload []byte) Frame {
	bp := p.Get()
	b := append((*bp)[:0], 0, 0, 0, 0)
	b = append(b, payload...)
	binary.BigEndian.PutUint32(b[:4], uint32(len(payload)))
	*bp = b
	return Frame{Buf: bp}
}

// queued reports how many frames wait in s's queue, not yet taken by Run.
func queued(s *Sender) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// echoServer accepts one connection and streams decoded payloads to out.
func echoServer(t *testing.T) (addr string, out <-chan []byte) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	ch := make(chan []byte, 1024)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var header [4]byte
				for {
					if _, err := io.ReadFull(conn, header[:]); err != nil {
						return
					}
					body := make([]byte, binary.BigEndian.Uint32(header[:]))
					if _, err := io.ReadFull(conn, body); err != nil {
						return
					}
					ch <- body
				}
			}()
		}
	}()
	return ln.Addr().String(), ch
}

func TestSenderDeliversInFIFOOrder(t *testing.T) {
	addr, out := echoServer(t)
	pool := NewPool(64)
	stop := make(chan struct{})
	s := NewSender(Config{Addr: addr, Pool: pool, Stop: stop, Seed: 1})
	go s.Run()
	defer close(stop)

	const n = 200
	for i := 0; i < n; i++ {
		// A refusal here is backpressure (the first dial is still in
		// flight), not an error: retry until the sender drains the queue.
		f := frame(pool, []byte{byte(i)})
		for !s.Enqueue(f) {
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case b := <-out:
			if len(b) != 1 || b[0] != byte(i) {
				t.Fatalf("frame %d: got % x", i, b)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for frame %d", i)
		}
	}
}

func TestEnqueueNeverBlocksWhenPeerIsDown(t *testing.T) {
	pool := NewPool(64)
	stop := make(chan struct{})
	var drops atomic.Int64
	s := NewSender(Config{
		Addr: "127.0.0.1:1", // nothing listens here
		Pool: pool, Stop: stop, Seed: 2, Queue: 4,
		OnDrop: func(Frame) { drops.Add(1) },
	})
	go s.Run()

	// Far more frames than the queue holds: every Enqueue must return
	// immediately, accepted or not.
	refused := 0
	start := time.Now()
	for i := 0; i < 500; i++ {
		f := frame(pool, []byte{1})
		if !s.Enqueue(f) {
			refused++
			pool.Put(f.Buf) // refused: ownership stayed with us
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("500 enqueues against a dead peer took %v", elapsed)
	}
	if refused == 0 {
		t.Fatal("queue of 4 never refused a frame against a dead peer")
	}
	close(stop)
	// Give Run a moment to exit, then settle accounting.
	time.Sleep(50 * time.Millisecond)
	s.Drain()
	if got := pool.Balance(); got != 0 {
		t.Fatalf("pool balance after drain = %d, want 0", got)
	}
}

func TestDrainAccountsEveryQueuedFrame(t *testing.T) {
	pool := NewPool(64)
	stop := make(chan struct{})
	var drops atomic.Int64
	s := NewSender(Config{
		Addr: "127.0.0.1:1", Pool: pool, Stop: stop, Seed: 3, Queue: 16,
		OnDrop: func(Frame) { drops.Add(1) },
	})
	// Never started: everything stays queued.
	const n = 10
	for i := 0; i < n; i++ {
		if !s.Enqueue(frame(pool, []byte{byte(i)})) {
			t.Fatalf("enqueue %d refused with empty queue", i)
		}
	}
	close(stop)
	s.Drain()
	if got := drops.Load(); got != n {
		t.Fatalf("OnDrop called %d times, want %d", got, n)
	}
	if got := pool.Balance(); got != 0 {
		t.Fatalf("pool balance = %d, want 0", got)
	}
}

func TestSenderReconnectsAfterPeerRestarts(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close() // peer is down at first

	pool := NewPool(64)
	stop := make(chan struct{})
	s := NewSender(Config{Addr: addr, Pool: pool, Stop: stop, Seed: 4})
	go s.Run()
	defer close(stop)

	// Sends while down are dropped (bounded latency, never an error).
	for i := 0; i < 5; i++ {
		s.Enqueue(frame(pool, []byte{0xFF}))
		time.Sleep(10 * time.Millisecond)
	}

	// Peer comes back on the same address; the sender must re-dial.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	got := make(chan byte, 64)
	go func() {
		conn, err := ln2.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var header [4]byte
		for {
			if _, err := io.ReadFull(conn, header[:]); err != nil {
				return
			}
			body := make([]byte, binary.BigEndian.Uint32(header[:]))
			if _, err := io.ReadFull(conn, body); err != nil {
				return
			}
			got <- body[0]
		}
	}()
	deadline := time.After(5 * time.Second)
	for {
		s.Enqueue(frame(pool, []byte{0xAB}))
		select {
		case b := <-got:
			if b != 0xAB {
				t.Fatalf("delivered % x after reconnect", b)
			}
			return
		case <-deadline:
			t.Fatal("sender never reconnected")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// queuedSender builds a sender against a fresh echo server and enqueues
// frames before Run starts, so its first swap takes them all at once.
// Flush sizes stream to the returned channel.
func queuedSender(t *testing.T, pool *Pool, frames []Frame) (<-chan int, <-chan []byte) {
	t.Helper()
	addr, out := echoServer(t)
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	flushes := make(chan int, 64) // never block the sender goroutine
	s := NewSender(Config{Addr: addr, Pool: pool, Stop: stop, Seed: 13,
		OnFlush: func(frames, bytes int) { flushes <- frames }})
	for i, f := range frames {
		if !s.Enqueue(f) {
			t.Fatalf("enqueue %d refused", i)
		}
	}
	go s.Run()
	return flushes, out
}

// TestCollectDelayedFrameEndsBatch: a frame carrying an injected link delay
// ends the batch it would have joined. The frames queued ahead of it flush
// first, the delayed frame then goes out alone after its delay, and the
// frames behind it form the next batch — FIFO order end to end.
func TestCollectDelayedFrameEndsBatch(t *testing.T) {
	const delay = 20 * time.Millisecond
	for _, tc := range []struct {
		name    string
		delayed []bool // per frame, in queue order
		flushes []int
	}{
		{"middle", []bool{false, false, true, false, false}, []int{2, 1, 2}},
		{"leading and back to back", []bool{true, true, false, false, false}, []int{1, 1, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := NewPool(64)
			var frames []Frame
			for i, d := range tc.delayed {
				f := frame(pool, []byte{byte(i)})
				if d {
					f.Delay = delay
				}
				frames = append(frames, f)
			}
			flushes, out := queuedSender(t, pool, frames)
			for i, want := range tc.flushes {
				select {
				case n := <-flushes:
					if n != want {
						t.Fatalf("flush %d coalesced %d frames, want %d", i, n, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("flush %d never happened", i)
				}
			}
			for i := range tc.delayed {
				select {
				case b := <-out:
					if b[0] != byte(i) {
						t.Fatalf("frame %d delivered as % x", i, b)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("frame %d never delivered", i)
				}
			}
			select {
			case n := <-flushes:
				t.Fatalf("extra flush of %d frames", n)
			default:
			}
		})
	}
}

// TestStopDuringDelayDropsFrame: a stop that arrives while the sender
// serves a frame's injected delay ends Run at once, and the frame is
// accounted as dropped and its buffer released.
func TestStopDuringDelayDropsFrame(t *testing.T) {
	addr, _ := echoServer(t)
	pool := NewPool(64)
	stop := make(chan struct{})
	done := make(chan struct{})
	var drops atomic.Int64
	s := NewSender(Config{Addr: addr, Pool: pool, Stop: stop, Seed: 12,
		OnDrop: func(Frame) { drops.Add(1) }})
	f := frame(pool, []byte{0x5A})
	f.Delay = time.Minute
	if !s.Enqueue(f) {
		t.Fatal("enqueue refused")
	}
	go func() {
		s.Run()
		close(done)
	}()
	for queued(s) > 0 {
		time.Sleep(time.Millisecond) // until the sender has taken the frame
	}
	close(stop)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after stop during the delay")
	}
	s.Drain()
	if got := drops.Load(); got != 1 {
		t.Fatalf("OnDrop called %d times, want 1", got)
	}
	if got := pool.Balance(); got != 0 {
		t.Fatalf("pool balance = %d, want 0", got)
	}
}

// TestStalledPeerBoundsUnwrittenFrames: against a peer that accepts and
// never reads, the sender writes until the socket buffers are full and then
// sits in a write. From then on Enqueue refuses every frame: Queue of them
// wait unwritten, some queued and some taken into that write. Stop and
// Drain then account every accepted frame exactly once — written, or
// dropped, those taken mid-write included.
func TestStalledPeerBoundsUnwrittenFrames(t *testing.T) {
	const queue = 8
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	peers := make(chan net.Conn, 8)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			peers <- conn // never read from
		}
	}()
	pool := NewPool(64)
	stop := make(chan struct{})
	done := make(chan struct{})
	var drops, written atomic.Int64
	s := NewSender(Config{Addr: ln.Addr().String(), Pool: pool, Stop: stop, Seed: 14,
		Queue: queue, WriteTimeout: time.Minute,
		OnDrop:  func(Frame) { drops.Add(1) },
		OnFlush: func(frames, _ int) { written.Add(int64(frames)) }})
	go func() {
		s.Run()
		close(done)
	}()

	payload := make([]byte, 16<<10)
	accepted := 0
	deadline := time.Now().Add(10 * time.Second)
	for last := time.Now(); time.Since(last) < 100*time.Millisecond; {
		if time.Now().After(deadline) {
			t.Fatal("the stalled peer kept taking frames for 10s")
		}
		f := frame(pool, payload)
		if s.Enqueue(f) {
			accepted++
			last = time.Now()
			continue
		}
		pool.Put(f.Buf) // refused: ownership stayed with us
		time.Sleep(time.Millisecond)
	}
	if got := int64(accepted) - written.Load(); got != queue || s.unwritten.Load() != queue {
		t.Fatalf("refusing with %d accepted frames unwritten (counted %d), want the bound %d", got, s.unwritten.Load(), queue)
	}
	if queued(s) == queue {
		t.Fatal("no frame taken into the stalled write")
	}
	if drops.Load() != 0 {
		t.Fatalf("%d frames dropped before the stop", drops.Load())
	}

	close(stop)
	_ = (<-peers).Close() // fails the stalled write; the sender then sees the stop
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after the stop")
	}
	s.Drain()
	if got := written.Load() + drops.Load(); got != int64(accepted) {
		t.Fatalf("%d frames written and %d dropped, want the %d accepted", written.Load(), drops.Load(), accepted)
	}
	if f := frame(pool, payload); s.Enqueue(f) {
		t.Fatal("a drained sender accepted a frame")
	} else {
		pool.Put(f.Buf)
	}
	if got := pool.Balance(); got != 0 {
		t.Fatalf("pool balance = %d, want 0", got)
	}
}

// TestStopBetweenWritesDropsTheRest: a stop seen between two writes of one
// swapped-out batch ends Run there, and the frames of the batch not yet
// written are dropped and released with the rest — none is left behind.
func TestStopBetweenWritesDropsTheRest(t *testing.T) {
	const n = batchFrames + 44 // two writes' worth, taken in one swap
	pool := NewPool(64)
	stop := make(chan struct{})
	var drops atomic.Int64
	s := NewSender(Config{
		Addr: "127.0.0.1:1", // nothing listens: the first write's dial fails
		Pool: pool, Stop: stop, Seed: 15, Queue: n,
		OnDrop: func(Frame) {
			if drops.Add(1) == 1 {
				close(stop) // on the sender goroutine, inside the first write
			}
		},
	})
	for i := 0; i < n; i++ {
		if !s.Enqueue(frame(pool, []byte{byte(i)})) {
			t.Fatalf("enqueue %d refused under the bound", i)
		}
	}
	s.Run()
	s.Drain()
	if got := drops.Load(); got != n {
		t.Fatalf("OnDrop called %d times, want %d", got, n)
	}
	if got := pool.Balance(); got != 0 {
		t.Fatalf("pool balance = %d, want 0", got)
	}
}

// TestNewSenderAllocatesUnderOneKiB: building a sender reserves nothing
// for its bound, so a link that is never used costs its struct and its
// wake channel — not a queue of Queue frames.
func TestNewSenderAllocatesUnderOneKiB(t *testing.T) {
	const runs = 100
	pool := NewPool(64)
	keep := make([]*Sender, runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewSender(Config{Addr: "127.0.0.1:1", Pool: pool, Queue: 4096, Seed: int64(i)})
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
		t.Fatalf("NewSender allocates %d B, budget 1 KiB", per)
	}
}
