// Package link provides the reusable per-directed-link sender the live
// transports (and future client libraries) are built from: a bounded
// outbound queue with non-blocking enqueue, frame coalescing into one
// vectored write, capped exponential backoff with jitter on re-dial, write
// deadlines, and exact drain-on-stop buffer accounting.
//
// A Sender owns one directed link. The producer side (a node loop, a KV
// client) hands it encoded frames with Enqueue, which never blocks: when
// the queue is full the frame is refused and the producer accounts the
// drop — a dead or stalled peer costs a drop, never latency. All dialing
// and writing happens inside Run, so a slow dial or a stalled write can
// only ever delay this link's own frames. The sender never waits for a
// batch to fill: it writes whatever is queued, up to fixed caps, at once.
//
// Buffer ownership: frames carry pooled buffers (Pool). Once Enqueue
// accepts a frame the sender owns its buffer and releases it exactly once
// — written, dropped on write error, or drained at stop. When Enqueue
// refuses a frame, ownership stays with the caller.
package link

import (
	"math/rand"
	"net"
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
	// Queue bounds the outbound queue (default 128).
	Queue int
	// WriteTimeout bounds each vectored write (default 1s).
	WriteTimeout time.Duration
	// Seed drives the re-dial jitter.
	Seed int64
	// Pool is the buffer pool frames are released into (required).
	Pool *Pool
	// Stop, when closed, makes Run return and Enqueue refuse frames.
	Stop <-chan struct{}
	// OnDrop is called once for every frame the sender drops after
	// accepting it (write failure, link down, stop-drain). Accounting
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
// Buffer ownership: once a frame is in s.frames, this sender owns its
// pooled buffer and releaseBatch returns every one exactly once — whether
// the batch was written or dropped. s.bufs is only a view for the
// vectored write, never an owner.
type Sender struct {
	cfg   Config
	queue chan Frame
	rng   *rand.Rand

	conn     net.Conn
	backoff  time.Duration
	nextDial time.Time

	frames []Frame      // collected batch (owns the buffers)
	bufs   net.Buffers  // reusable writev view over frames
	view   *net.Buffers // heap box handed to WriteTo, which consumes it

	// dials counts successful connection establishments over the link's
	// lifetime — shared-sender accounting for multi-group clusters, where
	// G groups over one link must still show exactly one dial per
	// directed pair in the steady state.
	dials atomic.Uint64
}

// NewSender builds a sender for one directed link. Run must be started on
// its own goroutine before frames flow.
func NewSender(cfg Config) *Sender {
	cfg.fill()
	if cfg.Pool == nil {
		panic("link: Config.Pool is required")
	}
	return &Sender{
		cfg:   cfg,
		queue: make(chan Frame, cfg.Queue),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Dials returns how many connections this link has established over its
// lifetime: 1 in the steady state (regardless of how many consensus
// groups multiplex over the link), more only after redials. Safe from any
// goroutine.
func (s *Sender) Dials() uint64 { return s.dials.Load() }

// Enqueue offers a frame to the link without blocking. It reports whether
// the sender took ownership; on false (queue full or stopping) the caller
// keeps the buffer and accounts the drop itself.
func (s *Sender) Enqueue(f Frame) bool {
	select {
	case s.queue <- f:
		return true
	default:
		return false
	}
}

// Run is the sender loop; it returns when Config.Stop closes. Call Drain
// afterwards (once no producer can enqueue) to settle buffer accounting.
func (s *Sender) Run() {
	defer s.closeConn()
	for {
		select {
		case <-s.cfg.Stop:
			return
		default:
		}
		select {
		case <-s.cfg.Stop:
			return
		case f := <-s.queue:
			s.collect(f)
		}
	}
}

// Drain accounts and releases every frame still queued. Call only after
// Run has returned and producers have stopped enqueuing.
func (s *Sender) Drain() {
	for {
		select {
		case f := <-s.queue:
			s.dropFrame(f)
		default:
			return
		}
	}
}

// collect gathers the zero-delay frames already queued behind first — up
// to the frame and byte caps — and flushes them with one vectored write. A
// frame carrying an injected link delay ends the batch: everything queued
// before it is flushed first (FIFO order holds), then the delay is served
// and the frame goes out alone, exactly as an un-batched sender would.
// Serving the delay inside the sender goroutine is what models link
// latency: a slow link delays only its own frames.
func (s *Sender) collect(first Frame) {
	if first.Delay > 0 {
		s.delayedSingle(first)
		return
	}
	s.frames = append(s.frames[:0], first)
	bytes := len(*first.Buf)
	// len() on the buffered queue tells how many frames are ready right
	// now; receiving that many plain (no select-with-default per frame)
	// keeps the per-frame drain cost to a bare channel op. Frames enqueued
	// during the drain are picked up by the next len() round or batch.
	for n := len(s.queue); n > 0 && len(s.frames) < batchFrames && bytes < BatchBytes; n = len(s.queue) {
		for ; n > 0 && len(s.frames) < batchFrames && bytes < BatchBytes; n-- {
			f := <-s.queue
			if f.Delay > 0 {
				s.flush()
				s.delayedSingle(f)
				return
			}
			s.frames = append(s.frames, f)
			bytes += len(*f.Buf)
		}
	}
	s.flush()
}

// delayedSingle serves f's injected delay, then writes it on its own.
func (s *Sender) delayedSingle(f Frame) {
	if !s.sleep(f.Delay) {
		s.dropFrame(f) // stopping
		return
	}
	s.frames = append(s.frames[:0], f)
	s.flush()
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

// flush writes the collected batch with one vectored write (writev on a
// TCP connection) under one deadline, dialing first if needed. On any
// failure the whole batch is dropped: a partial write poisons the frame
// stream, so the connection is torn down and re-dialed with backoff. TCP's
// reliability is per-connection; across reconnects the link is "reliable
// unless the process is down", which matches the crash-stop model. Either
// way every pooled buffer in the batch is released exactly once.
func (s *Sender) flush() {
	if len(s.frames) == 0 {
		return
	}
	if s.conn == nil && !s.redial() {
		s.releaseBatch(true)
		return
	}
	s.bufs = s.bufs[:0]
	for i := range s.frames {
		s.bufs = append(s.bufs, *s.frames[i].Buf)
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
	for i := range s.bufs {
		s.bufs[i] = nil // do not retain pooled bytes across batches
	}
	s.bufs = s.bufs[:0]
	if err != nil {
		s.closeConn()
		s.scheduleRedial()
		s.releaseBatch(true)
		return
	}
	s.backoff = 0
	n, written := len(s.frames), 0
	for i := range s.frames {
		written += len(*s.frames[i].Buf)
	}
	s.releaseBatch(false)
	if s.cfg.OnFlush != nil {
		s.cfg.OnFlush(n, written)
	}
}

// releaseBatch returns every buffer in the current batch to the pool
// exactly once, accounting each frame as dropped when drop is set.
func (s *Sender) releaseBatch(drop bool) {
	for i := range s.frames {
		if drop {
			s.dropFrame(s.frames[i])
		} else {
			s.cfg.Pool.Put(s.frames[i].Buf)
		}
		s.frames[i] = Frame{}
	}
	s.frames = s.frames[:0]
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
	wait := s.backoff/2 + time.Duration(s.rng.Int63n(int64(s.backoff/2)+1))
	s.nextDial = time.Now().Add(wait)
}

func (s *Sender) closeConn() {
	if s.conn != nil {
		_ = s.conn.Close()
		s.conn = nil
	}
}

// dropFrame accounts one frame as dropped and returns its buffer.
func (s *Sender) dropFrame(f Frame) {
	if s.cfg.OnDrop != nil {
		s.cfg.OnDrop(f)
	}
	s.cfg.Pool.Put(f.Buf)
}
