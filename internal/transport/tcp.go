package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultline"
	"repro/internal/link"
	"repro/internal/loop"
	"repro/internal/metrics"
	nodepkg "repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Config parameterizes a TCP cluster.
type Config struct {
	// N is the number of processes (required, > 1).
	N int
	// Seed drives the TCP senders' re-dial jitter.
	Seed int64
	// Quiet suppresses per-process logging.
	Quiet bool
	// Observer is an optional extra obs.Sink teed with the cluster's
	// stats; it sees every send/deliver/drop with its wire bytes and trace
	// context, and every process going down (obs.Down) and coming back
	// (obs.Up). Implementations must be safe for concurrent use.
	Observer obs.Sink
	// Fault optionally subjects every link to a faultline.Injector: each
	// send consults the injector for a drop/delay decision (its schedule's
	// cuts and heals included), and Start arms its schedule's crashes and
	// restarts at their offsets from NewTCPCluster (DESIGN.md §10).
	// Injected drops are reported through the cluster's obs.Sink exactly
	// like organic loss. The injector must be built for the same N and must not
	// be shared between clusters (sharing desynchronizes its decision
	// streams).
	Fault *faultline.Injector
	// Rebuild constructs the next incarnation of a rebooting process —
	// typically a fresh automaton recovered from the process's durable
	// store. It is called once per restart event of the fault schedule
	// that finds its process down, from a timer goroutine, so it must be
	// safe to run concurrently with the rest of the cluster. Required when
	// the schedule holds a restart. The reboot swaps the automaton in
	// process: the process keeps its listener and its links.
	Rebuild func(nodepkg.ID) nodepkg.Automaton
	// WriteTimeout bounds each TCP write, so a peer that stops reading can
	// never wedge a sender (default 1s).
	WriteTimeout time.Duration
	// SendQueue bounds the frames each TCP link holds unwritten, queued or
	// in a write under way (link.Config.Queue); past it a message is
	// dropped, never blocking the node loop (default 128).
	SendQueue int
	// OnFlush, when set, observes every successful TCP vectored write
	// with its coalesced frame and payload counts (telemetry.FlushHook
	// turns it into obs.Flush events). Runs on sender goroutines; must be
	// safe for concurrent use and cheap.
	OnFlush func(from, to nodepkg.ID, frames, bytes int)
}

func (c *Config) fill(automatons int) error {
	if c.N < 2 {
		return fmt.Errorf("transport: N = %d, need at least 2", c.N)
	}
	if automatons != c.N {
		return fmt.Errorf("transport: %d automatons for N=%d", automatons, c.N)
	}
	if c.Fault != nil && c.Fault.N() != c.N {
		return fmt.Errorf("transport: fault injector built for n=%d, cluster has N=%d", c.Fault.N(), c.N)
	}
	if c.Fault != nil && c.Fault.Schedule().Has(faultline.OpRestart) && c.Rebuild == nil {
		return fmt.Errorf("transport: fault schedule holds a restart but Config.Rebuild is nil")
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = time.Second
	}
	if c.SendQueue <= 0 {
		c.SendQueue = 128
	}
	return nil
}

// TCPCluster runs n automatons as TCP endpoints on the loopback interface,
// each process listening on a kernel-assigned port. Every directed link is
// owned by a link.Sender goroutine with a bounded queue: the node loop
// enqueues a frame without blocking, and the sender dials (capped
// exponential backoff plus jitter), applies write deadlines, reconnects on
// failure and coalesces what is queued (up to 256 frames or
// link.BatchBytes) into one vectored write. A dead or stalled peer costs
// at most a queue-full drop, never a blocked link or node loop. TCP gives
// reliable, ordered per-connection delivery — the paper's "reliable link"
// regime, live. This file encodes frames, consults the fault injector and
// wires the cluster's observability into the senders (internal/link).
type TCPCluster struct {
	cfg       Config
	stations  []*station // process i at index i
	start     time.Time  // the processes' clock reads time since
	stats     *metrics.MessageStats
	sink      obs.Sink       // stats teed with cfg.Observer
	wg        sync.WaitGroup // every goroutine Stop waits for
	listeners []net.Listener
	addrs     []net.Addr
	senders   []*link.Sender // n*n row-major, nil on the diagonal
	stopCh    chan struct{}
	conns     atomic.Int64 // receiver-side open connections (accepted - closed)

	mu       sync.Mutex
	accepted []net.Conn    // receiver-side, for shutdown
	crashers []*time.Timer // the fault schedule's armed timer

	started bool
	stopped bool
}

// NewTCPCluster builds a TCP cluster on 127.0.0.1; automatons[i] runs as
// process i.
func NewTCPCluster(cfg Config, automatons []nodepkg.Automaton) (*TCPCluster, error) {
	if err := cfg.fill(len(automatons)); err != nil {
		return nil, err
	}
	c := &TCPCluster{
		cfg:       cfg,
		stations:  make([]*station, cfg.N),
		start:     time.Now(),
		stats:     metrics.NewMessageStats(cfg.N),
		listeners: make([]net.Listener, cfg.N),
		addrs:     make([]net.Addr, cfg.N),
		senders:   make([]*link.Sender, cfg.N*cfg.N),
		stopCh:    make(chan struct{}),
	}
	c.sink = obs.Tee(c.stats, cfg.Observer)
	for i := range c.stations {
		c.stations[i] = newStation(nodepkg.ID(i), cfg.N, automatons[i], (*tcpHost)(c), c.sink)
	}
	for i := 0; i < cfg.N; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.closeAll()
			return nil, fmt.Errorf("listen tcp for p%d: %w", i, err)
		}
		c.listeners[i] = ln
		c.addrs[i] = ln.Addr()
	}
	for from := 0; from < cfg.N; from++ {
		for to := 0; to < cfg.N; to++ {
			if from == to {
				continue
			}
			from, to := from, to
			var onFlush func(frames, bytes int)
			if cfg.OnFlush != nil {
				onFlush = func(frames, bytes int) {
					cfg.OnFlush(nodepkg.ID(from), nodepkg.ID(to), frames, bytes)
				}
			}
			c.senders[from*cfg.N+to] = link.NewSender(link.Config{
				Addr:         c.addrs[to].String(),
				Queue:        cfg.SendQueue,
				WriteTimeout: cfg.WriteTimeout,
				Seed:         cfg.Seed ^ int64(from*cfg.N+to+1),
				Pool:         encBufs,
				Stop:         c.stopCh,
				OnDrop: func(f link.Frame) {
					c.sink.OnDrop(c.now(), from, to, f.Kind)
				},
				OnFlush: onFlush,
			})
		}
	}
	return c, nil
}

func (c *TCPCluster) closeAll() {
	for _, ln := range c.listeners {
		if ln != nil {
			_ = ln.Close()
		}
	}
	c.mu.Lock()
	for _, conn := range c.accepted {
		_ = conn.Close()
	}
	c.mu.Unlock()
}

// OpenConns returns the receiver-side count of currently open inbound
// connections across the cluster. A quiesced n-process cluster with every
// directed link in use reads exactly n*(n-1) — one TCP connection per
// directed peer pair. Safe from any goroutine.
func (c *TCPCluster) OpenConns() int { return int(c.conns.Load()) }

// Dials returns the lifetime total of successful dials across every
// directed link: n*(n-1) when no link ever re-dialed.
func (c *TCPCluster) Dials() uint64 {
	var total uint64
	for _, s := range c.senders {
		if s != nil {
			total += s.Dials()
		}
	}
	return total
}

// Addr returns the TCP address of process id.
func (c *TCPCluster) Addr(id nodepkg.ID) net.Addr { return c.addrs[id] }

// Stats returns the cluster's message accounting.
func (c *TCPCluster) Stats() *metrics.MessageStats { return c.stats }

// Crash makes process id inert (crash-stop).
func (c *TCPCluster) Crash(id nodepkg.ID) { c.stations[id].Crash() }

// Start boots every process: an accept loop each and a sender goroutine
// per link, then every station's first turn on the calling goroutine (so
// an OnApply replay while a log restores runs there), then a node loop
// per station; then it arms the fault schedule's crashes and restarts. When
// Start returns every detector has its first output and phase 1 is
// queued on the links.
func (c *TCPCluster) Start() {
	if c.started {
		return
	}
	c.started = true
	c.wg.Add(len(c.stations))
	for i := range c.stations {
		go c.acceptLoop(i)
	}
	for _, s := range c.senders {
		if s == nil {
			continue
		}
		c.wg.Add(1)
		go func(s *link.Sender) {
			defer c.wg.Done()
			s.Run()
		}(s)
	}
	for _, s := range c.stations {
		s.Boot()
	}
	c.wg.Add(len(c.stations))
	for _, s := range c.stations {
		go s.run(&c.wg)
	}
	if c.cfg.Fault != nil {
		c.armSchedule(c.cfg.Fault.Schedule())
	}
}

// armSchedule applies the crashes and restarts of a fault schedule, each
// at its offset from NewTCPCluster, one after another on one chain of
// timers: an event is armed only once the one before it has applied, so
// events at one instant apply in schedule order, and one already due
// applies at once, on the caller. A restart reboots only a process that is
// down. The schedule's cuts and heals are the injector's, in Transmit.
func (c *TCPCluster) armSchedule(sched faultline.Schedule) {
	for i, e := range sched {
		if e.Op != faultline.OpCrash && e.Op != faultline.OpRestart {
			continue
		}
		if wait := e.At - time.Since(c.start); wait > 0 {
			c.armTimer(time.AfterFunc(wait, func() { c.armSchedule(sched[i:]) }))
			return
		}
		if e.Op == faultline.OpCrash {
			c.Crash(e.From)
		} else if c.stations[e.From].Down() {
			c.Restart(e.From, c.cfg.Rebuild(e.From))
		}
	}
}

// Restart reboots process id with a fresh automaton — the in-process
// equivalent of restarting a kill -9'd process from its durable state,
// keeping its listener and links. The process is up at once; its node
// loop swaps the automaton in and runs its Start as at boot. Safe from any
// goroutine.
func (c *TCPCluster) Restart(id nodepkg.ID, a nodepkg.Automaton) {
	c.stations[id].Revive()
	c.stations[id].mbox.Push(event{reboot: a})
}

// armTimer registers t for cancellation at Stop; when the cluster has
// already stopped it cancels t at once.
func (c *TCPCluster) armTimer(t *time.Timer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		t.Stop()
		return
	}
	c.crashers = append(c.crashers, t)
}

// acceptLoop accepts inbound connections for process i and spawns a frame
// reader for each.
func (c *TCPCluster) acceptLoop(i int) {
	defer c.wg.Done()
	for {
		conn, err := c.listeners[i].Accept()
		if err != nil {
			return // listener closed
		}
		c.mu.Lock()
		if c.stopped {
			c.mu.Unlock()
			_ = conn.Close()
			return
		}
		c.accepted = append(c.accepted, conn)
		c.mu.Unlock()
		c.conns.Add(1)
		c.wg.Add(1)
		go c.readLoop(i, conn)
	}
}

// readLoop is the receive half of a turn (DESIGN.md "Turns"): one read
// from the socket, one decode pass over every complete frame it brought —
// in place, in a read buffer sized to the sender's batch cap — and one push
// of what they decoded to the station's mailbox. What the peer's sender
// flushed with one vectored write is therefore one read syscall, one
// mailbox lock and one wake-up here, and one turn of the automaton. The messages share nothing with
// the read buffer: the connection's decoder copies their strings into its
// own chunks (wire.ConnDecoder), one allocation per ~64 KiB of them.
//
// Any sign of a corrupt stream — a length prefix out of range or an
// envelope that fails to decode — ends the loop, as do EOF and a read
// error; the connection is closed on every exit. Framing cannot be trusted
// past the first bad byte, and the peer's sender re-establishes the link.
// The station itself is never affected.
func (c *TCPCluster) readLoop(i int, conn net.Conn) {
	defer c.wg.Done()
	defer c.release(conn)
	st := c.stations[i]
	in := frames{br: bufio.NewReaderSize(conn, link.BatchBytes)}
	dec := codec.NewConnDecoder()
	var batch []event
	for {
		// batch is empty here: the loop never blocks in a read while it
		// holds decoded, undelivered messages.
		frame, err := in.next(true)
		now := c.now()
		for err == nil && frame != nil {
			env, derr := dec.UnmarshalEnvelope(frame)
			if derr != nil || env.From < 0 || int(env.From) >= c.cfg.N {
				err = errCorrupt
				break
			}
			c.sink.OnDeliver(now, int(env.From), i, env.Msg.KindID())
			batch = append(batch, event{from: env.From, msg: env.Msg})
			if len(batch) == loop.MaxTurn {
				// A turn takes no more; handing it over here bounds batch.
				st.deliverAll(batch)
				batch = batch[:0]
			}
			frame, err = in.next(false)
		}
		st.deliverAll(batch)
		batch = batch[:0]
		if err != nil {
			return
		}
	}
}

// release closes an inbound connection whose read loop has ended and takes
// it off the books, so a link that is redialed any number of times holds
// one socket and one slot.
func (c *TCPCluster) release(conn net.Conn) {
	_ = conn.Close() // only ever read from
	c.mu.Lock()
	if k := slices.Index(c.accepted, conn); k >= 0 {
		c.accepted = slices.Delete(c.accepted, k, k+1)
	}
	c.mu.Unlock()
	c.conns.Add(-1)
}

// errCorrupt ends a read loop whose stream can no longer be framed.
var errCorrupt = errors.New("transport: corrupt stream")

// frames cuts a connection's byte stream into length-prefixed frames where
// they lie in the read buffer: no copy, and no buffer besides it except
// for the one frame too large for it.
type frames struct {
	br   *bufio.Reader
	used int // bytes of br under the frame returned last; the next call discards them
}

// next returns the envelope bytes of the next frame, valid until the next
// call. With wait false it never reads from the connection: it returns nil
// when the buffer holds no further complete frame.
func (f *frames) next(wait bool) ([]byte, error) {
	_, _ = f.br.Discard(f.used) // buffered bytes: cannot fail
	f.used = 0
	if !wait && f.br.Buffered() < 4 {
		return nil, nil
	}
	header, err := f.br.Peek(4)
	if err != nil {
		return nil, err
	}
	size := int(binary.BigEndian.Uint32(header))
	if size == 0 || size > wire.MaxFrame {
		return nil, errCorrupt
	}
	if !wait && f.br.Buffered() < 4+size {
		return nil, nil
	}
	if 4+size > f.br.Size() {
		big := make([]byte, size)
		_, _ = f.br.Discard(4)
		if _, err := io.ReadFull(f.br, big); err != nil {
			return nil, err
		}
		return big, nil
	}
	frame, err := f.br.Peek(4 + size)
	if err != nil {
		return nil, err
	}
	f.used = 4 + size
	return frame[4:], nil
}

// Inject hands m to the cluster's send path as if process from had sent
// it to process to, over the from→to link's sender — the entry point for
// external clients (tests, the chaossoak runner). Safe to call from any
// goroutine.
func (c *TCPCluster) Inject(from, to nodepkg.ID, m nodepkg.Message) {
	(*tcpHost)(c).Transmit(from, to, m)
}

// Stop closes all sockets and waits for every goroutine.
func (c *TCPCluster) Stop() {
	c.mu.Lock()
	if c.stopped || !c.started {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	for _, t := range c.crashers {
		t.Stop()
	}
	c.mu.Unlock()
	close(c.stopCh)
	c.closeAll()
	for _, s := range c.stations {
		s.mbox.Close()
	}
	c.wg.Wait()
	// The senders have exited and nothing enqueues after stopCh closes;
	// whatever frames remain queued are dead. Account and release them so
	// the pool balance stays exact.
	for _, s := range c.senders {
		if s != nil {
			s.Drain()
		}
	}
}

// now is the cluster's clock: wall-clock time since it was built.
func (c *TCPCluster) now() sim.Time { return sim.Time(time.Since(c.start).Nanoseconds()) }

// tcpHost is the cluster as its processes' node.Host: it hands frames to
// the per-link senders, and logs unless the cluster is quiet.
type tcpHost TCPCluster

func (h *tcpHost) Now() sim.Time                  { return (*TCPCluster)(h).now() }
func (h *tcpHost) Logs() bool                     { return !h.cfg.Quiet }
func (h *tcpHost) Log(id nodepkg.ID, text string) { log.Printf("p%d: %s", id, text) }

// Transmit reports the send — with its trace context when msg is a
// node.Traced with a nonzero trace id: an untraced message costs one type
// assertion — and hands the frame to the from→to link's sender.
func (h *tcpHost) Transmit(from, to nodepkg.ID, msg nodepkg.Message) {
	c := (*TCPCluster)(h)
	k := msg.KindID()
	now := c.now()
	c.sink.OnSend(now, int(from), int(to), k)
	if tm, ok := msg.(nodepkg.Traced); ok {
		if trace, span := tm.TraceContext(); trace != 0 {
			c.sink.OnSendCtx(now, int(from), int(to), k, trace, span)
		}
	}
	select {
	case <-c.stopCh:
		c.sink.OnDrop(now, int(from), int(to), k)
		return
	default:
	}
	var delay time.Duration
	if c.cfg.Fault != nil {
		d, ok := c.cfg.Fault.Transmit(from, to, time.Since(c.start))
		if !ok {
			c.sink.OnDrop(now, int(from), int(to), k)
			return
		}
		delay = d
	}
	// Encode the length-prefixed frame in one pooled buffer: reserve the
	// prefix, append the envelope, then patch the length in.
	bp := encBufs.Get()
	frame := append((*bp)[:0], 0, 0, 0, 0)
	frame, err := codec.MarshalEnvelopeAppend(frame, from, msg)
	if err != nil {
		encBufs.Put(bp)
		unframable(msg, err)
		c.sink.OnDrop(now, int(from), int(to), k)
		return
	}
	*bp = frame
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	c.sink.OnWireBytes(now, int(from), int(to), k, len(frame))

	s := c.senders[int(from)*c.cfg.N+int(to)]
	if !s.Enqueue(link.Frame{Buf: bp, Kind: k, Delay: delay}) {
		// Queue full: the peer is dead or stalled. The message is lost —
		// never block the node loop waiting for a sick link.
		c.sink.OnDrop(now, int(from), int(to), k)
		encBufs.Put(bp)
	}
}
