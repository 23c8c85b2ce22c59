package main

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/tracing"
	"repro/internal/transport"
)

// rsmKinds are the replicated-log message kinds behind msgs_per_cmd.
// Sampled frames of the traced pass ride inside TRACE wrappers and are
// counted under the wrapper's kind.
var rsmKinds = []string{
	rsm.KindRequest, rsm.KindPrepare, rsm.KindPromise, rsm.KindNack,
	rsm.KindAccept, rsm.KindAccepted, rsm.KindDecide, rsm.KindLearn,
	rsm.KindLeaseGrant, rsm.KindLeaseAck, rsm.KindReadReq, rsm.KindReadReply,
	tracing.KindTrace,
}

var omegaKinds = []string{core.KindLeader, core.KindAccuse, core.KindRebuff}

type kindCounter interface{ KindCount(string) uint64 }

func sumKinds(s kindCounter, kinds []string) uint64 {
	var total uint64
	for _, k := range kinds {
		total += s.KindCount(k)
	}
	return total
}

// ingressID is the replica clients talk to. Omega's first leader is the
// lowest id, so replica 1 is a follower on a stable run; a run where it
// is not is unstable and says so.
const ingressID = node.ID(1)

// liveCluster is one booted loopback TCP cluster with the client's hooks
// installed at the ingress replica.
type liveCluster struct {
	w      workload
	c      *transport.TCPCluster
	dets   []*core.Detector
	logs   []*rsm.Node
	wals   []*durable.WAL
	dirs   []string
	in     *ingress
	leader atomic.Int64 // the ingress detector's current output
	p      *probes      // nil on the untraced pass
	setup  time.Duration
}

// bootLive builds and starts a cluster and returns once a probe command
// sent through the ingress has been applied there: listeners, the dial
// mesh, Omega's first output and phase 1 are all behind it. That span is
// the workload's set-up time.
func bootLive(w workload, seed int64, tmp string, p *probes, ops *opLog) (*liveCluster, error) {
	t0 := time.Now()
	cl := &liveCluster{w: w, p: p, in: newIngress(ops)}
	cl.leader.Store(int64(node.None))
	autos := make([]node.Automaton, liveN)
	for i := 0; i < liveN; i++ {
		cfg := engineConfig()
		cfg.Lease = w.Lease
		cfg.Tracer = p.tracer(i)
		if w.WAL {
			dir, err := os.MkdirTemp(tmp, fmt.Sprintf("wal-p%d-", i))
			if err != nil {
				cl.stop()
				return nil, err
			}
			cl.dirs = append(cl.dirs, dir)
			wal, err := durable.Open(dir, p.walOptions(durable.Options{Sync: durable.SyncGroup, GroupBytes: 64 << 10}))
			if err != nil {
				cl.stop()
				return nil, err
			}
			cl.wals = append(cl.wals, wal)
			cfg.Store = p.wrapStore(wal)
		}
		det := newDetector()
		log := rsm.New(det, cfg)
		cl.dets = append(cl.dets, det)
		cl.logs = append(cl.logs, log)
		autos[i] = node.Compose(p.wrap(layerCore, node.ID(i), det), p.wrap(layerRSM, node.ID(i), log))
	}
	cl.logs[ingressID].OnApply(cl.in.onApply)
	cl.logs[ingressID].OnReadReply(cl.in.onReadReply)
	cl.dets[ingressID].History().AddNotify(func(_ sim.Time, l node.ID) { cl.leader.Store(int64(l)) })

	tcfg := transport.Config{N: liveN, Seed: seed, Quiet: true, SendQueue: sendQueue}
	if p != nil {
		tcfg.OnFlush = p.onFlush
		tcfg.Observer = p.tset.Sink()
	}
	c, err := transport.NewTCPCluster(tcfg, autos)
	if err != nil {
		cl.stop()
		return nil, err
	}
	cl.c = c
	if p != nil {
		p.tset.SetWallStart(time.Now())
	}
	c.Start()

	deadline := time.After(10 * time.Second)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for n := 0; ; n++ {
		cl.inject(rsm.RequestMsg{V: consensus.Value(fmt.Sprintf("%s%d", probePrefix, n))})
		select {
		case <-cl.in.probe:
			cl.setup = time.Since(t0)
			return cl, cl.awaitLease()
		case <-deadline:
			cl.stop()
			return nil, fmt.Errorf("%s: no probe command applied at the ingress within 10s", w.Name)
		case <-tick.C:
		}
	}
}

// awaitLease waits, on lease workloads, until the leader serves reads
// locally, so the measured window never starts on the fallback path.
func (cl *liveCluster) awaitLease() error {
	if cl.w.Lease == 0 {
		return nil
	}
	deadline := time.Now().Add(5 * time.Second)
	for n := 0; ; n++ {
		if l := cl.leader.Load(); l >= 0 && cl.logs[l].LeaseHeld() {
			return nil
		}
		if time.Now().After(deadline) {
			cl.stop()
			return fmt.Errorf("%s: leader never acquired the read lease", cl.w.Name)
		}
		cl.inject(rsm.RequestMsg{V: consensus.Value(fmt.Sprintf("%slease-%d", probePrefix, n))})
		time.Sleep(5 * time.Millisecond)
	}
}

// inject sends one client message over the ingress→leader link. With no
// leader known, or the ingress itself elected, nothing is sent: the
// operation times out and is retried, and the run reports instability.
func (cl *liveCluster) inject(m node.Message) {
	l := node.ID(cl.leader.Load())
	if l == node.None || l == ingressID {
		return
	}
	if cl.p == nil {
		cl.c.Inject(ingressID, l, m)
	} else if cl.p.timed(&cl.p.injectNS, func() { cl.c.Inject(ingressID, l, m) }) > 0 {
		cl.p.injects.Add(1)
	}
}

// stop halts the cluster and closes its WALs; the WAL directories stay
// for the recovery check until removeDirs.
func (cl *liveCluster) stop() {
	if cl.c != nil {
		cl.c.Stop()
	}
	for _, w := range cl.wals {
		_ = w.Close() // a final flush; the recovery check reopens and reports
	}
	cl.wals = nil
}

func (cl *liveCluster) removeDirs() {
	for _, d := range cl.dirs {
		_ = os.RemoveAll(d) // scratch under the caller's tmp dir
	}
	cl.dirs = nil
}

// snap is every counter the window metrics are deltas of, read at one
// instant by the generator goroutine.
type snap struct {
	at      int64 // ns since the client epoch
	cpu     time.Duration
	allocs  uint64
	rsmMsgs uint64
	omega   uint64
	hb      uint64
	bytes   uint64
	dropped uint64
	sent    uint64

	applied, instances, writes, reads int64

	leaderChanges   int
	local, fallback uint64

	busy, sendNS        [numLayers]int64
	injectNS, injects   int64
	flushes, frames, fb int64
	storeNS, storeCalls int64
	fsyncs, appendBytes int64
}

func (cl *liveCluster) snapshot() snap {
	st := cl.c.Stats()
	s := snap{
		at:      cl.in.nowNS(),
		cpu:     cpuTime(),
		allocs:  heapAllocs(),
		rsmMsgs: sumKinds(st, rsmKinds),
		omega:   sumKinds(st, omegaKinds),
		hb:      st.KindCount(core.KindLeader),
		bytes:   st.WireBytes(),
		dropped: st.Dropped(),
		sent:    st.TotalSent(),

		applied:   cl.in.applied.Load(),
		instances: cl.in.instances.Load(),
		writes:    cl.in.writesDone.Load(),
		reads:     cl.in.readsDone.Load(),
	}
	for i := range cl.dets {
		s.leaderChanges += cl.dets[i].History().NumChanges()
		s.local += cl.logs[i].LocalReads()
		s.fallback += cl.logs[i].FallbackReads()
	}
	if p := cl.p; p != nil {
		for l := range p.layers {
			s.busy[l] = p.layers[l].busyNS.Load()
			s.sendNS[l] = p.layers[l].sendNS.Load()
		}
		s.injectNS, s.injects = p.injectNS.Load(), p.injects.Load()
		s.flushes, s.frames, s.fb = p.flushes.Load(), p.flushFrames.Load(), p.flushBytes.Load()
		s.storeNS, s.storeCalls = p.storeNS.Load(), p.storeCalls.Load()
		s.fsyncs, s.appendBytes = p.fsyncs.Load(), p.appendBytes.Load()
	}
	return s
}

type retryEnt struct {
	seq      int64
	deadline int64
}

// generator is the one client goroutine: it issues operations on the
// workload's schedule, snapshots counters at window boundaries, and
// retries whatever misses the client timeout.
type generator struct {
	cl   *liveCluster
	w    workload
	pay  *payload
	ops  *opLog
	seed uint64

	start  int64   // first operation's due time, ns since epoch
	bounds []int64 // warm-up end, then each window's end
	traced []bool  // per window: probes on
	snaps  []snap
	lag    []hist // per window: send instant minus due instant

	expired int64 // ops below this seq have been checked against the timeout
	retry   []retryEnt
}

// genTick is the open loop's cadence: the generator wakes on absolute
// multiples of it and sends whatever has come due. A relative
// time.Sleep(200µs) took 0.25 ms or 1.1 ms depending on whether the
// sandbox's other vCPU happened to be awake, and with the burst size the
// cluster's batching, and with that cpu_us_per_op by a factor of two from
// run to run; a 1 ms grid is what the coarse timer delivers either way.
const genTick = time.Millisecond

func (g *generator) run() {
	in := g.cl.in
	idle := time.NewTicker(time.Millisecond) // the closed loop's fallback wake-up, for timeouts
	defer idle.Stop()
	next := 0
	end := g.bounds[len(g.bounds)-1]
	for {
		now := in.nowNS()
		for next < len(g.bounds) && now >= g.bounds[next] {
			g.snaps = append(g.snaps, g.cl.snapshot())
			if g.cl.p != nil {
				g.cl.p.on.Store(next < len(g.traced) && g.traced[next])
			}
			next++
		}
		if now >= end {
			break
		}
		if g.w.Rate > 0 {
			due := (now - g.start) * int64(g.w.Rate) / int64(time.Second)
			for n := g.ops.len(); n <= due; n++ {
				g.issue(g.start + n*int64(time.Second)/int64(g.w.Rate))
			}
		} else {
			for g.ops.len()-in.completed() < satInflight {
				g.issue(in.nowNS())
			}
		}
		g.expire(now)
		if g.w.Rate > 0 {
			next := (in.nowNS()/int64(genTick) + 1) * int64(genTick)
			time.Sleep(time.Duration(next - in.nowNS()))
			continue
		}
		// Closed loop: the completion hook wakes the generator when half
		// the outstanding operations have finished.
		select {
		case <-in.wake:
		case <-idle.C:
		}
	}
	// Drain: everything issued completes, or has had three timeouts to.
	for limit := end + 3*int64(clientTO); in.completed() < g.ops.len() && in.nowNS() < limit; {
		g.expire(in.nowNS())
		time.Sleep(time.Millisecond)
	}
}

// window returns which measured window an instant falls in, -1 for
// warm-up and after the end.
func (g *generator) window(t int64) int {
	if t < g.bounds[0] {
		return -1
	}
	for i := 1; i < len(g.bounds); i++ {
		if t < g.bounds[i] {
			return i - 1
		}
	}
	return -1
}

func (g *generator) issue(intended int64) {
	seq, o := g.ops.add()
	o.intended = intended
	o.read = g.w.ReadFrac > 0 && float64(mix(g.seed, uint64(seq))%1000) < g.w.ReadFrac*1000
	if o.read {
		o.needIdx = g.cl.in.ackedPos.Load()
	}
	o.sent = g.cl.in.nowNS()
	g.cl.inject(g.message(seq, o))
	if w := g.window(intended); w >= 0 {
		g.lag[w].record(o.sent - intended)
	}
}

func (g *generator) message(seq int64, o *op) node.Message {
	if o.read {
		return rsm.ReadReqMsg{Seq: uint64(seq), Count: 1, Origin: ingressID}
	}
	m := node.Message(rsm.RequestMsg{V: g.pay.command(seq)})
	if p := g.cl.p; p != nil && p.on.Load() {
		// Client-side trace ingress, as cmd/consload does it: a sampled
		// request carries its context on the wire.
		if ctx := p.tset.Tracer(int(ingressID)).StartTrace(p.tset.Stamp(), "request"); ctx.Valid() {
			m = tracing.Wrap{Ctx: ctx, Inner: m}
		}
	}
	return m
}

// expire retries every operation whose latest attempt is a client
// timeout old. First attempts are checked in issue order, which is also
// deadline order.
func (g *generator) expire(now int64) {
	for ; g.expired < g.ops.len(); g.expired++ {
		o := g.ops.at(g.expired)
		if o.sent+int64(clientTO) > now {
			break
		}
		if o.done.Load() == 0 {
			o.retried = true
			g.retry = append(g.retry, retryEnt{g.expired, now})
		}
	}
	kept := g.retry[:0]
	for _, r := range g.retry {
		o := g.ops.at(r.seq)
		if o.done.Load() != 0 {
			continue
		}
		if r.deadline <= now {
			g.cl.inject(g.message(r.seq, o))
			r.deadline = now + int64(clientTO)
		}
		kept = append(kept, r)
	}
	g.retry = kept
}

// windowOps is what the op records say about one measured window:
// latencies from the intended send instant, over the whole window.
type windowOps struct {
	attempted, failed  int64
	all, writes, reads hist
}

// tally sorts every op record into its window.
func (g *generator) tally() []windowOps {
	out := make([]windowOps, len(g.bounds)-1)
	for seq := int64(0); seq < g.ops.len(); seq++ {
		o := g.ops.at(seq)
		wi := g.window(o.intended)
		if wi < 0 {
			continue
		}
		w := &out[wi]
		w.attempted++
		done := o.done.Load()
		if done == 0 || o.retried || done-o.sent > int64(clientTO) {
			w.failed++
		}
		if done == 0 {
			continue
		}
		lat := done - o.intended
		w.all.record(lat)
		if o.read {
			w.reads.record(lat)
		} else {
			w.writes.record(lat)
		}
	}
	return out
}

// segment is one fresh cluster driven through warm-up and its measured
// windows, stopped and checked.
type segment struct {
	g           *generator
	wins        []windowOps
	final       snap
	conns       int
	retained    int
	accusations uint64
	links       int
	recordNS    float64
	violations  violations
	recovery    time.Duration
	rss         float64 // resident set after a forced collection, the stopped cluster still referenced
}

// runSegment drives cl for warm, then for span — split, on the traced
// pass, into an untraced and a traced half.
func runSegment(cl *liveCluster, seed int64, warm, span time.Duration, ops *opLog) *segment {
	defer cl.removeDirs()
	defer cl.stop()
	g := &generator{cl: cl, w: cl.w, pay: newPayload(seed), ops: ops, seed: uint64(seed)}
	g.start = cl.in.nowNS() + int64(10*time.Millisecond)
	g.bounds = []int64{g.start + int64(warm)}
	if cl.p != nil {
		g.bounds = append(g.bounds, g.bounds[0]+int64(span)/2, g.bounds[0]+int64(span))
		g.traced = []bool{false, true}
	} else {
		g.bounds = append(g.bounds, g.bounds[0]+int64(span))
		g.traced = []bool{false}
	}
	g.lag = make([]hist, len(g.bounds)-1)
	g.run()

	sg := &segment{g: g, final: cl.snapshot(), conns: cl.c.OpenConns()}
	cl.stop()
	sg.rss = residentMB()
	sg.retained = cl.logs[0].Retained()
	for _, d := range cl.dets {
		sg.accusations += d.AccusationsSent()
	}
	sg.wins = g.tally()
	sg.violations, sg.recovery = checkLive(cl, g)
	if cl.p != nil {
		sg.links = cl.c.Stats().LinksUsedSince(sim.Time(g.snaps[len(g.snaps)-2].at))
		sg.recordNS = sinkCost(cl.c.Stats())
	}
	return sg
}

// totals is what measured windows add up to: counter deltas between a
// window's two snapshots and its latency histogram. The windows of
// several segments are summed, so every ratio and quantile is read over
// all the measured time, never over a best or a typical slice of it.
type totals struct {
	secs, completed, writes float64
	cpu                     time.Duration
	allocs, rsmMsgs         uint64
	lat                     hist
}

// addWindow adds measured window i of the segment.
func (t *totals) addWindow(sg *segment, i int) {
	a, b := sg.g.snaps[i], sg.g.snaps[i+1]
	t.secs += float64(b.at-a.at) / 1e9
	t.completed += float64(b.writes - a.writes + b.reads - a.reads)
	t.writes += float64(b.writes - a.writes)
	t.cpu += b.cpu - a.cpu
	t.allocs += b.allocs - a.allocs
	t.rsmMsgs += b.rsmMsgs - a.rsmMsgs
	t.lat.merge(&sg.wins[i].all)
}

func (t *totals) goodput() float64  { return ratio(t.completed, t.secs) }
func (t *totals) cpuPerOp() float64 { return ratio(us(float64(t.cpu)), t.completed) }

// endToEnd fills the metrics every live workload reads off its untraced
// windows; goodput and CPU are printed with them but not gated (hostSpeed).
func (t *totals) endToEnd(e map[string]float64) {
	e["op_p50_ms"] = ms(t.lat.quantile(0.50))
	e["op_tail_ms"] = ms(t.lat.quantile(liveTailQ))
	e["goodput_ops_per_s"] = t.goodput()
	e["cpu_us_per_op"] = t.cpuPerOp()
	e["allocs_per_op"] = ratio(float64(t.allocs), t.completed)
	e["msgs_per_cmd"] = ratio(float64(t.rsmMsgs), t.writes)
}

// unstable applies the stability guards: a segment that trips one is
// invalid, not noisy.
func (sg *segment) unstable() []string {
	var out []string
	g := sg.g
	if n := sg.final.leaderChanges - g.snaps[0].leaderChanges; n > 0 {
		out = append(out, fmt.Sprintf("core.leader_changes = %d inside the measured window", n))
	}
	if g.w.Rate == 0 {
		return out
	}
	for i := range sg.wins {
		var t totals
		t.addWindow(sg, i)
		if got := t.goodput(); got < 0.99*float64(g.w.Rate) || got > 1.01*float64(g.w.Rate) {
			out = append(out, fmt.Sprintf("goodput %.0f ops/s is not the offered %d ops/s within 1%%", got, g.w.Rate))
		}
		if lag := ms(g.lag[i].quantile(liveTailQ)); lag > maxGenLagMS {
			out = append(out, fmt.Sprintf("bench.gen_lag_p90_ms = %.2f, above %v", lag, maxGenLagMS))
		}
	}
	return out
}

// perLayer reads a segment's traced window; the untraced window before
// it, on the same cluster, is the overhead baseline. The budget rows sum
// to the traced CPU per operation.
func (sg *segment) perLayer(tmp string) (map[string]float64, []budgetRow, error) {
	g := sg.g
	p := g.cl.p
	last := len(sg.wins) - 1
	ta, tb := g.snaps[last], g.snaps[last+1]
	two := &sg.wins[last]
	tsecs := float64(tb.at-ta.at) / 1e9
	tcompleted := float64(tb.writes - ta.writes + tb.reads - ta.reads)
	twrites := float64(tb.writes - ta.writes)
	var plain, traced totals
	plain.addWindow(sg, 0)
	traced.addWindow(sg, last)
	cpuPlain, cpuTraced := plain.cpuPerOp(), traced.cpuPerOp()
	L := map[string]float64{}
	L["bench.gen_lag_p90_ms"] = ms(g.lag[last].quantile(liveTailQ))
	L["bench.gen_lag_p99_ms"] = ms(g.lag[last].quantile(0.99))
	L["bench.op_p99_ms"] = ms(two.all.quantile(0.99))
	L["bench.trace_overhead_pct"] = 100 * ratio(cpuTraced-cpuPlain, cpuPlain)
	L["bench.goodput_ops_per_s"] = plain.goodput()
	L["bench.cpu_us_per_op"] = cpuPlain
	L["bench.traced_cpu_us_per_op"] = cpuTraced
	L["bench.fail_ratio"] = ratio(float64(two.failed), float64(two.attempted))
	L["bench.peak_rss_mb"] = peakRSSMB()
	L["bench.write_p50_ms"] = ms(two.writes.quantile(0.50))
	L["bench.write_p99_ms"] = ms(two.writes.quantile(0.99))
	L["bench.read_p50_ms"] = ms(two.reads.quantile(0.50))
	L["bench.read_p99_ms"] = ms(two.reads.quantile(0.99))

	injectNS := float64(tb.injectNS - ta.injectNS)
	L["transport.inject_ns"] = ratio(injectNS, float64(tb.injects-ta.injects))
	sendNS := float64(tb.sendNS[layerCore] - ta.sendNS[layerCore] + tb.sendNS[layerRSM] - ta.sendNS[layerRSM])
	L["transport.send_us_per_cmd"] = ratio(us(sendNS), tcompleted)
	L["transport.dropped_per_kcmd"] = 1000 * ratio(float64(tb.dropped-ta.dropped), tcompleted)
	L["transport.open_conns"] = float64(sg.conns)

	L["link.frames_per_flush"] = ratio(float64(tb.frames-ta.frames), float64(tb.flushes-ta.flushes))
	L["link.bytes_per_flush"] = ratio(float64(tb.fb-ta.fb), float64(tb.flushes-ta.flushes))
	L["link.flushes_per_cmd"] = ratio(float64(tb.flushes-ta.flushes), tcompleted)
	L["link.queue_drops"] = float64(tb.dropped - ta.dropped)

	msgs := float64(tb.sent - ta.sent)
	enc, dec, allocs := p.codecCost()
	L["wire.encode_ns_per_msg"] = enc
	L["wire.decode_ns_per_msg"] = dec
	L["wire.allocs_per_msg"] = allocs
	L["wire.us_per_cmd"] = ratio(us((enc+dec)*msgs), tcompleted)
	L["wire.bytes_per_cmd"] = ratio(float64(tb.bytes-ta.bytes), twrites)

	storeNS := float64(tb.storeNS - ta.storeNS)
	rsmSelf := float64(tb.busy[layerRSM]-ta.busy[layerRSM]) - float64(tb.sendNS[layerRSM]-ta.sendNS[layerRSM]) - storeNS
	coreSelf := float64(tb.busy[layerCore]-ta.busy[layerCore]) - float64(tb.sendNS[layerCore]-ta.sendNS[layerCore])
	L["rsm.busy_us_per_cmd"] = ratio(us(rsmSelf), tcompleted)
	L["rsm.cmds_per_instance"] = ratio(float64(tb.applied-ta.applied), float64(tb.instances-ta.instances))
	queue, quorum, apply, err := p.stages(tmp)
	if err != nil {
		return nil, nil, err
	}
	L["rsm.queue_ms"], L["rsm.quorum_ms"], L["rsm.apply_ms"] = queue, quorum, apply
	L["rsm.local_read_ratio"] = ratio(float64(tb.local-ta.local), float64(tb.local-ta.local+tb.fallback-ta.fallback))
	L["rsm.fallback_reads"] = float64(tb.fallback - ta.fallback)
	L["rsm.retained_entries"] = float64(sg.retained)

	L["core.busy_us_per_s"] = ratio(us(coreSelf), tsecs)
	L["core.hb_msgs_per_s"] = ratio(float64(tb.hb-ta.hb), tsecs)
	L["core.omega_msgs_per_s"] = ratio(float64(tb.omega-ta.omega), tsecs)
	L["core.leader_changes"] = float64(tb.leaderChanges - ta.leaderChanges)
	L["core.accusations"] = float64(sg.accusations)
	L["core.active_links"] = float64(sg.links)

	L["durable.append_us_p50"] = us(p.storeHist.quantile(0.50))
	L["durable.append_us_p99"] = us(p.storeHist.quantile(0.99))
	L["durable.calls_per_cmd"] = ratio(float64(tb.storeCalls-ta.storeCalls), twrites)
	L["durable.us_per_cmd"] = ratio(us(storeNS), tcompleted)
	L["durable.fsyncs_per_cmd"] = ratio(float64(tb.fsyncs-ta.fsyncs), twrites)
	L["durable.fsync_ms_p99"] = ms(p.fsyncHist.quantile(0.99))
	L["durable.bytes_per_cmd"] = ratio(float64(tb.appendBytes-ta.appendBytes), twrites)
	L["durable.recovery_ms"] = ms(float64(sg.recovery))

	// Each message is observed once on send and once on delivery.
	L["obs.record_ns_per_event"] = sg.recordNS
	obsNS := 2 * sg.recordNS * msgs
	L["obs.us_per_cmd"] = ratio(us(obsNS), tcompleted)
	L["tracing.dropped_spans"] = float64(p.droppedSpans(liveN))

	// Encode and the send-side record happen inside the timed sends, so
	// only decode and the delivery-side record are added on top of them.
	covered := rsmSelf + coreSelf + sendNS + injectNS + storeNS + dec*msgs + obsNS/2
	L["bench.gen_us_per_cmd"] = ratio(us(injectNS), tcompleted)
	L["bench.unattributed_pct"] = 100 * (1 - ratio(ratio(us(covered), tcompleted), cpuTraced))
	budget := []budgetRow{
		{"rsm", ratio(us(rsmSelf), tcompleted)},
		{"core", ratio(us(coreSelf), tcompleted)},
		{"wire enc+dec", L["wire.us_per_cmd"]},
		{"transport send (less enc, obs)", ratio(us(sendNS-enc*msgs-obsNS/2), tcompleted)},
		{"transport inject", ratio(us(injectNS), tcompleted)},
		{"durable", L["durable.us_per_cmd"]},
		{"obs", L["obs.us_per_cmd"]},
		{"unattributed", cpuTraced * L["bench.unattributed_pct"] / 100},
		{"traced cpu_us_per_op", cpuTraced},
		{"untraced cpu_us_per_op", cpuPlain},
	}
	return L, budget, nil
}

// satSegment is how long one closed-loop segment runs, warm-up included.
// Saturated, the engine keeps about 2 KB per command and fills a
// gigabyte in three seconds; past that a GC mark phase takes one of two
// cores for hundreds of milliseconds, the leader's heartbeats starve and
// followers elect a new one. Short segments on fresh clusters keep the
// capacity figure inside the regime where it means something.
const (
	satSegment = 2500 * time.Millisecond
	satWarmup  = 500 * time.Millisecond
	liveBoots  = 40 // set-up time is the median of at least this many boots
)

// runLive measures one live workload as one or more segments, each on a
// fresh cluster, and reports the sum of the valid segments' windows.
func runLive(w workload, seed int64, seconds float64, traced bool, tmp string) (*measurement, error) {
	m := newMeasurement()
	total := time.Duration(seconds * float64(time.Second))
	segments, warm := 1, warmup
	if w.Rate == 0 {
		warm = satWarmup
		if segments = int(total / satSegment); segments < 1 {
			segments = 1
		}
	}
	if warm > total {
		warm = total
	}
	span := total
	if segments > 1 {
		span = total/time.Duration(segments) - warm
	}

	// A fresh set of probes per cluster: their histograms and span rings
	// describe one segment, not the boots before it.
	probesFor := func() *probes {
		if traced {
			return newProbes(liveN)
		}
		return nil
	}
	var setups []float64
	for i := segments; i < liveBoots; i++ {
		cl, err := bootLive(w, seed+int64(i), tmp, probesFor(), new(opLog))
		if err != nil {
			return nil, err
		}
		setups = append(setups, cl.setup.Seconds())
		cl.stop()
		cl.removeDirs()
	}
	var sum totals // the untraced windows of every valid segment
	var rss []float64
	layer := map[string][]float64{}
	var budgets [][]budgetRow
	valid := 0
	for i := 0; i < segments; i++ {
		ops := new(opLog)
		cl, err := bootLive(w, seed+int64(i), tmp, probesFor(), ops)
		if err != nil {
			return nil, err
		}
		setups = append(setups, cl.setup.Seconds())
		sg := runSegment(cl, seed+int64(i), warm, span, ops)
		runtime.GC() // the stopped cluster is garbage: keep it out of the next segment's heap
		m.Violations = append(m.Violations, sg.violations...)
		if why := sg.unstable(); len(why) > 0 {
			m.Unstable = append(m.Unstable, why...)
			continue
		}
		valid++
		m.Attempted += sg.wins[0].attempted
		m.Failed += sg.wins[0].failed
		sum.addWindow(sg, 0)
		rss = append(rss, sg.rss)
		if traced {
			L, budget, err := sg.perLayer(tmp)
			if err != nil {
				return nil, err
			}
			for k, v := range L {
				layer[k] = append(layer[k], v)
			}
			budgets = append(budgets, budget)
		}
	}
	// One invalid segment in several is dropped; more, or the only one,
	// invalidates the run.
	if valid > 0 && valid >= segments-1 {
		m.Unstable = nil
	}
	sum.endToEnd(m.E2E)
	m.E2E["setup_s"] = median(setups)
	m.E2E["rss_mb"] = median(rss)
	if !traced {
		return m, nil
	}
	for _, d := range perLayer {
		m.Layer[d.Name] = median(layer[d.Name]) // 0 for a layer this workload does not run
	}
	if len(budgets) > 0 {
		m.Budget = budgets[len(budgets)/2]
	}
	return m, nil
}

// maxGenLagMS is the generator-lag guard, read at the gated percentile:
// past it the open loop was not sending on schedule and the latencies up
// to that percentile describe the client, not the cluster. (The lag's own
// p99 is inside the collector's stalls, like the latency's, and is
// reported, not guarded.)
const maxGenLagMS = 2.0
