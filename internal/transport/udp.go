package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
	nodepkg "repro/internal/node"
	"repro/internal/obs"
)

// UDPCluster runs n automatons as real UDP endpoints on the loopback
// interface. Each process owns a socket; messages are framed with the wire
// envelope (sender id + typed payload). UDP gives genuine asynchrony —
// kernel scheduling jitter, no delivery-order guarantee — so this is the
// closest thing to a deployment this repository ships.
type UDPCluster struct {
	cfg      Config
	stations []*station
	conns    []*net.UDPConn
	addrs    []*net.UDPAddr
	stats    *metrics.MessageStats
	sink     obs.Sink
	bytes    obs.ByteSink // byte-accounting view of sink, nil if unsupported
	ctx      obs.CtxSink  // trace-context view of sink, nil if unsupported
	start    time.Time

	mu       sync.Mutex
	crashers []*time.Timer

	wg      sync.WaitGroup
	started bool
	stopped bool
}

// NewUDPCluster builds a UDP cluster on 127.0.0.1 with kernel-assigned
// ports; automatons[i] runs as process i.
func NewUDPCluster(cfg Config, automatons []nodepkg.Automaton) (*UDPCluster, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(automatons) != cfg.N {
		return nil, fmt.Errorf("transport: %d automatons for N=%d", len(automatons), cfg.N)
	}
	c := &UDPCluster{
		cfg:   cfg,
		stats: metrics.NewMessageStatsWindow(cfg.N, cfg.RecordWindow),
		start: time.Now(),
		conns: make([]*net.UDPConn, cfg.N),
		addrs: make([]*net.UDPAddr, cfg.N),
	}
	c.sink = obs.Tee(c.stats, cfg.Observer)
	c.bytes = obs.Bytes(c.sink)
	c.ctx = obs.Ctx(c.sink)
	for i := 0; i < cfg.N; i++ {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0})
		if err != nil {
			c.closeConns()
			return nil, fmt.Errorf("listen udp for p%d: %w", i, err)
		}
		c.conns[i] = conn
		addr, ok := conn.LocalAddr().(*net.UDPAddr)
		if !ok {
			c.closeConns()
			return nil, fmt.Errorf("unexpected local addr type %T", conn.LocalAddr())
		}
		c.addrs[i] = addr
	}
	quiet := func(string, ...any) {}
	c.stations = make([]*station, cfg.N)
	for i := range c.stations {
		var logf func(string, ...any)
		if cfg.Quiet {
			logf = quiet
		}
		c.stations[i] = newStation(nodepkg.ID(i), cfg.N, automatons[i], &udpNet{cluster: c}, c.start, logf)
		c.stations[i].events, _ = cfg.Observer.(obs.EventSink)
	}
	return c, nil
}

func (c *UDPCluster) closeConns() {
	for _, conn := range c.conns {
		if conn != nil {
			_ = conn.Close()
		}
	}
}

// Stats returns the cluster's message accounting.
func (c *UDPCluster) Stats() *metrics.MessageStats { return c.stats }

// Addr returns the UDP address of process id.
func (c *UDPCluster) Addr(id nodepkg.ID) *net.UDPAddr { return c.addrs[id] }

// Start boots every process — one reader goroutine and one node loop each
// — and arms the fault plan's scheduled crashes.
func (c *UDPCluster) Start() {
	if c.started {
		return
	}
	c.started = true
	c.wg.Add(2 * len(c.stations))
	for i, s := range c.stations {
		go s.run(&c.wg)
		go c.readLoop(i)
	}
	c.mu.Lock()
	c.crashers = scheduleCrashes(c.cfg.Fault, c.Crash)
	c.mu.Unlock()
}

// readLoop decodes datagrams for process i into its mailbox. Only a
// closed socket ends the loop: transient kernel errors (buffer pressure,
// ICMP-induced errors) are logged and survived, so a live endpoint is
// never silently killed.
//
// The loop itself allocates nothing per datagram: one reusable read
// buffer, ReadFromUDPAddrPort (which returns the source address by value
// instead of allocating a *net.UDPAddr per datagram), and the socket's own
// decoder, which copies the strings a message keeps out of the buffer into
// chunks they share (wire.ConnDecoder). What remains is the message's box.
func (c *UDPCluster) readLoop(i int) {
	defer c.wg.Done()
	buf := make([]byte, 64*1024)
	dec := c.cfg.Codec.NewConnDecoder()
	for {
		n, _, err := c.conns[i].ReadFromUDPAddrPort(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			c.stations[i].logf("udp read: %v (continuing)", err)
			continue
		}
		env, err := dec.UnmarshalEnvelope(buf[:n])
		if err != nil {
			continue // a corrupt datagram must not kill the endpoint
		}
		if env.From < 0 || int(env.From) >= c.cfg.N {
			continue
		}
		c.sink.OnDeliver(c.stations[i].Now(), int(env.From), i, nodepkg.MessageKind(env.Msg))
		c.stations[i].deliver(env.From, env.Msg)
	}
}

// Crash makes process id inert (crash-stop). Its socket keeps draining so
// late datagrams do not pile up in kernel buffers.
func (c *UDPCluster) Crash(id nodepkg.ID) { c.stations[id].crash() }

// Inject hands m to the cluster's send path as if process from had sent
// it to process to, through a real datagram — the entry point for
// external clients (tests, the chaossoak runner). Safe to call from any
// goroutine.
func (c *UDPCluster) Inject(from, to nodepkg.ID, m nodepkg.Message) {
	(&udpNet{cluster: c}).send(from, to, m)
}

// Stop closes every socket and waits for all goroutines.
func (c *UDPCluster) Stop() {
	if c.stopped || !c.started {
		return
	}
	c.stopped = true
	c.mu.Lock()
	for _, t := range c.crashers {
		t.Stop()
	}
	c.mu.Unlock()
	c.closeConns()
	for _, s := range c.stations {
		s.mbox.Close()
	}
	c.wg.Wait()
}

// udpNet implements sender over the cluster's sockets.
type udpNet struct {
	cluster *UDPCluster
}

func (u *udpNet) send(from, to nodepkg.ID, msg nodepkg.Message) {
	c := u.cluster
	k := nodepkg.MessageKind(msg)
	now := c.stations[from].Now()
	c.sink.OnSend(now, int(from), int(to), k)
	reportSendCtx(c.ctx, now, int(from), int(to), k, msg)
	var delay time.Duration
	if c.cfg.Fault != nil {
		d, ok := c.cfg.Fault.Transmit(from, to, time.Since(c.start))
		if !ok {
			c.sink.OnDrop(now, int(from), int(to), k)
			return
		}
		delay = d
	}
	bp := encBufs.Get()
	data, err := c.cfg.Codec.MarshalEnvelopeAppend((*bp)[:0], from, msg)
	if err != nil {
		encBufs.Put(bp)
		panic(fmt.Sprintf("transport: marshal %T: %v", msg, err))
	}
	*bp = data
	if c.bytes != nil {
		c.bytes.OnWireBytes(now, int(from), int(to), k, len(data))
	}
	if delay > 0 {
		// Injected link delay: the datagram leaves later, from a timer
		// goroutine (net.UDPConn is safe for concurrent writes). The
		// pooled buffer is retained until the deferred write completes.
		time.AfterFunc(delay, func() { c.writeDatagram(bp, from, to, k) })
		return
	}
	c.writeDatagram(bp, from, to, k)
}

// writeDatagram writes one encoded envelope with a bounded deadline, so a
// peer (or kernel) that stops accepting writes can never wedge the caller
// — the station's node loop in the direct path.
func (c *UDPCluster) writeDatagram(bp *[]byte, from, to nodepkg.ID, k obs.Kind) {
	conn := c.conns[from]
	_ = conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
	if _, err := conn.WriteToUDP(*bp, c.addrs[to]); err != nil {
		// Socket closed during shutdown, a write timeout, or a transient
		// kernel error: UDP is lossy by contract, so account and move on.
		c.sink.OnDrop(c.stations[from].Now(), int(from), int(to), k)
	}
	encBufs.Put(bp)
}
