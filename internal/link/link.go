// Package link provides the reusable per-directed-link sender the live
// transports (and future client libraries) are built from: a bounded
// outbound queue with non-blocking enqueue, frame coalescing into one
// vectored write, capped exponential backoff with jitter on re-dial, write
// deadlines, and exact drain-on-stop buffer accounting.
//
// A Sender owns one directed link. The producer side (a node loop, a KV
// client) hands it encoded frames with Enqueue, which never blocks: when
// the bound is reached the frame is refused and the producer accounts the
// drop — a dead or stalled peer costs a drop, never latency. All dialing
// and writing happens inside Run, so a slow dial or a stalled write can
// only ever delay this link's own frames. The sender never waits for a
// batch to fill: it writes whatever is queued, up to fixed caps, at once.
//
// The queue is a slice under a mutex. Enqueue appends to it; Run swaps the
// whole slice out under the same lock, once per batch, and writes what it
// took while producers fill the other slice. A one-slot wake channel tells
// a sleeping Run that an empty queue got its first frame. The bound,
// Config.Queue, counts every frame accepted and not yet written or dropped:
// those still queued and those Run has taken into a write that has not
// finished, so a peer that stops reading is refused frames once Queue of
// them wait. The slices grow with the frames that arrive, never to the
// bound up front: a link the steady state does not use costs a few hundred
// bytes.
//
// Buffer ownership: frames carry pooled buffers (Pool). Once Enqueue
// accepts a frame the sender owns its buffer and releases it exactly once
// — written, dropped on write error, or dropped at stop. When Enqueue
// refuses a frame, ownership stays with the caller.
package link

import (
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Reconnect backoff bounds: capped exponential with jitter, so a flapping
// peer neither gets hammered nor starves. Each dial attempt is bounded by
// dialTimeout.
const (
	dialBackoffBase = 10 * time.Millisecond
	dialBackoffCap  = 500 * time.Millisecond
	dialTimeout     = time.Second
)

// What one vectored write coalesces at most: batchFrames frames, or
// BatchBytes of payload. A receiver that sizes its read buffer to
// BatchBytes takes a whole batch in one read.
const (
	batchFrames = 256
	BatchBytes  = 64 << 10
)

// Frame is one encoded, ready-to-write unit queued on a link. The sender
// writes Buf verbatim (any length prefix is already in it).
type Frame struct {
	// Buf is the pooled encode buffer holding the frame bytes.
	Buf *[]byte
	// Kind tags the frame's message kind for drop accounting.
	Kind obs.Kind
	// Delay is an injected link delay served before the write; a delayed
	// frame ends the batch it would have joined (FIFO order holds).
	Delay time.Duration
}

// Config parameterizes a Sender. Zero values select defaults.
type Config struct {
	// Addr is the dial target for this directed link.
	Addr string
	// Queue bounds the frames accepted and not yet written or dropped
	// (default 128): those waiting in the queue and those the sender has
	// taken into a write still under way. Enqueue refuses a frame once
	// Queue of them wait. The bound reserves no memory.
	Queue int
	// WriteTimeout bounds each vectored write (default 1s).
	WriteTimeout time.Duration
	// Seed drives the re-dial jitter.
	Seed int64
	// Pool is the buffer pool frames are released into (required).
	Pool *Pool
	// Stop, when closed, makes Run return, dropping what it had taken;
	// what is still queued is Drain's.
	Stop <-chan struct{}
	// OnDrop is called once for every frame the sender drops after
	// accepting it (write failure, link down, stop, drain). Accounting
	// only — the sender itself releases the buffer. May be nil.
	OnDrop func(Frame)
	// OnFlush is called after every successful vectored write with the
	// frame count and payload bytes it coalesced, for telemetry. Runs on
	// the sender goroutine; keep it cheap. May be nil.
	OnFlush func(frames, bytes int)
}

func (c *Config) fill() {
	if c.Queue <= 0 {
		c.Queue = 128
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = time.Second
	}
}

// Sender owns one directed link: its queue, its connection, and its
// reconnect state.
//
// Buffer ownership: once a frame is in queue or taken, this sender owns
// its pooled buffer and release returns every one exactly once — whether
// the frame was written or dropped. s.bufs is only a view for the vectored
// write, never an owner.
type Sender struct {
	cfg  Config
	wake chan struct{} // one slot: the queue got a frame while empty

	mu      sync.Mutex
	queue   []Frame // accepted, not yet taken by Run
	drained bool    // Drain has run: Enqueue refuses from then on
	// unwritten counts the frames accepted and not yet written or
	// dropped. Enqueue raises it under mu, so its check cannot overshoot;
	// Run lowers it as each write finishes.
	unwritten atomic.Int64

	// Run's own state.
	taken    []Frame // the slice swapped out of queue, being written
	rng      rand.PCG
	conn     net.Conn
	backoff  time.Duration
	nextDial time.Time
	bufs     net.Buffers  // reusable writev view over a batch
	view     *net.Buffers // heap box handed to WriteTo, which consumes it

	// dials counts successful connection establishments over the link's
	// lifetime: one per directed pair in the steady state.
	dials atomic.Uint64
}

// NewSender builds a sender for one directed link. Run must be started on
// its own goroutine before frames flow; frames enqueued before then wait.
func NewSender(cfg Config) *Sender {
	cfg.fill()
	if cfg.Pool == nil {
		panic("link: Config.Pool is required")
	}
	s := &Sender{cfg: cfg, wake: make(chan struct{}, 1)}
	s.rng.Seed(uint64(cfg.Seed), 0)
	return s
}

// Dials returns how many connections this link has established over its
// lifetime: 1 in the steady state, more only after redials. Safe from any
// goroutine.
func (s *Sender) Dials() uint64 { return s.dials.Load() }

// Enqueue offers a frame to the link without blocking. It reports whether
// the sender took ownership; on false (Queue frames unwritten, or drained)
// the caller keeps the buffer and accounts the drop itself.
func (s *Sender) Enqueue(f Frame) bool {
	s.mu.Lock()
	if s.drained || s.unwritten.Load() >= int64(s.cfg.Queue) {
		s.mu.Unlock()
		return false
	}
	s.unwritten.Add(1)
	s.queue = append(s.queue, f)
	first := len(s.queue) == 1
	s.mu.Unlock()
	if first {
		select {
		case s.wake <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
	return true
}

// Run is the sender loop; it returns when Config.Stop closes. Call Drain
// afterwards (once no producer can enqueue) to settle buffer accounting.
func (s *Sender) Run() {
	defer s.closeConn()
	for !s.stopped() {
		s.mu.Lock()
		s.taken, s.queue = s.queue, s.taken
		s.mu.Unlock()
		if len(s.taken) == 0 {
			select {
			case <-s.cfg.Stop:
				return
			case <-s.wake:
			}
			continue
		}
		s.write(s.taken)
		clear(s.taken) // hold no frame until the next swap
		s.taken = s.taken[:0]
	}
}

// Drain accounts and releases every frame still queued, and makes Enqueue
// refuse from then on. Call it after Run has returned.
func (s *Sender) Drain() {
	s.mu.Lock()
	s.drained = true
	left := s.queue
	s.queue = nil
	s.mu.Unlock()
	s.release(left, true)
}

// stopped reports whether Config.Stop has closed.
func (s *Sender) stopped() bool {
	select {
	case <-s.cfg.Stop:
		return true
	default:
		return false
	}
}

// write puts the frames taken from the queue on the wire in order. A run
// of frames without an injected delay is coalesced, up to the frame and
// byte caps, into one vectored write. A frame carrying a delay ends the run
// before it: everything ahead is written first (FIFO order holds), then
// the delay is served and the frame goes out alone, exactly as an
// un-batched sender would. Serving the delay on the sender goroutine is
// what models link latency: a slow link delays only its own frames. Once
// Stop closes, whatever is left is dropped.
func (s *Sender) write(frames []Frame) {
	for len(frames) > 0 {
		if s.stopped() {
			s.release(frames, true)
			return
		}
		if d := frames[0].Delay; d > 0 {
			if !s.sleep(d) {
				s.release(frames, true)
				return
			}
			s.flush(frames[:1])
			frames = frames[1:]
			continue
		}
		n, bytes := 0, 0
		for n < len(frames) && n < batchFrames && bytes < BatchBytes && frames[n].Delay == 0 {
			bytes += len(*frames[n].Buf)
			n++
		}
		s.flush(frames[:n])
		frames = frames[n:]
	}
}

// sleep waits for d, returning false if the sender is stopped first.
func (s *Sender) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	select {
	case <-t.C:
		return true
	case <-s.cfg.Stop:
		t.Stop()
		return false
	}
}

// flush writes frames with one vectored write (writev on a TCP connection)
// under one deadline, dialing first if needed. On any failure every frame
// is dropped: a partial write poisons the frame stream, so the connection
// is torn down and re-dialed with backoff. TCP's reliability is
// per-connection; across reconnects the link is "reliable unless the
// process is down", which matches the crash-stop model. Either way every
// pooled buffer is released exactly once.
func (s *Sender) flush(frames []Frame) {
	if s.conn == nil && !s.redial() {
		s.release(frames, true)
		return
	}
	written := 0
	for _, f := range frames {
		s.bufs = append(s.bufs, *f.Buf)
		written += len(*f.Buf)
	}
	_ = s.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	// WriteTo consumes the Buffers it is called on; hand it a reusable
	// boxed copy of the header so s.bufs keeps its backing array for the
	// next flush and no slice header escapes per flush.
	if s.view == nil {
		s.view = new(net.Buffers)
	}
	*s.view = s.bufs
	_, err := s.view.WriteTo(s.conn)
	*s.view = nil
	clear(s.bufs) // do not retain pooled bytes across batches
	s.bufs = s.bufs[:0]
	if err != nil {
		s.closeConn()
		s.scheduleRedial()
		s.release(frames, true)
		return
	}
	s.backoff = 0
	s.release(frames, false)
	if s.cfg.OnFlush != nil {
		s.cfg.OnFlush(len(frames), written)
	}
}

// release returns the buffer of every frame to the pool exactly once,
// accounting each as dropped when drop is set, and takes the frames off
// the unwritten count.
func (s *Sender) release(frames []Frame, drop bool) {
	for _, f := range frames {
		if drop && s.cfg.OnDrop != nil {
			s.cfg.OnDrop(f)
		}
		s.cfg.Pool.Put(f.Buf)
	}
	s.unwritten.Add(-int64(len(frames)))
}

// redial re-establishes the connection, honouring the backoff window.
// Frames arriving while the link is down are dropped immediately — like
// packets sent into a dead link — so send latency stays bounded.
func (s *Sender) redial() bool {
	if !s.nextDial.IsZero() && time.Now().Before(s.nextDial) {
		return false
	}
	conn, err := (&net.Dialer{Timeout: dialTimeout}).Dial("tcp", s.cfg.Addr)
	if err != nil {
		s.scheduleRedial()
		return false
	}
	s.conn = conn
	s.backoff = 0
	s.nextDial = time.Time{}
	s.dials.Add(1)
	return true
}

// scheduleRedial advances the capped exponential backoff and jitters the
// next dial time over [backoff/2, backoff].
func (s *Sender) scheduleRedial() {
	if s.backoff == 0 {
		s.backoff = dialBackoffBase
	} else if s.backoff *= 2; s.backoff > dialBackoffCap {
		s.backoff = dialBackoffCap
	}
	half := uint64(s.backoff / 2)
	s.nextDial = time.Now().Add(time.Duration(half + s.rng.Uint64()%(half+1)))
}

func (s *Sender) closeConn() {
	if s.conn != nil {
		_ = s.conn.Close()
		s.conn = nil
	}
}
