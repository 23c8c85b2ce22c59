// Command consload is a throughput harness for the layered consensus
// engine over a live loopback TCP cluster: real sockets, real wire codec,
// real Omega detectors — the path production code runs. It drives a
// closed-loop client against the elected leader and reports decided
// commands per second, consensus messages per command, and wire bytes per
// command.
//
// By default it runs the comparison the engine exists for: a
// single-command baseline (-batch 1 -window 1 — one instance in flight,
// one command per instance) against the batched + pipelined configuration
// (defaults BatchMax 16, Window 8), and prints the speedup.
//
// With -groups G it adds a fourth arm: the sharded write engine
// (internal/consensus/group), G independent consensus groups multiplexed
// over the same per-peer TCP links, each group driven by its own closed
// loop at its own physical leader. The run fails unless the cluster held
// exactly one TCP connection per directed peer pair — the shared-socket
// property is asserted from counters, never eyeballed.
//
// Usage examples:
//
//	consload                          # baseline vs batched, 3s each
//	consload -n 5 -dur 5s -reps 3    # best of three per arm
//	consload -batch 4 -window 2      # tune the batched arm
//	consload -groups 4               # add the sharded arm, 4 groups
//	consload -cpuprofile cpu.pprof   # per-arm cpu-<arm>.pprof over the load window
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/group"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/tracing"
	"repro/internal/transport"
)

// rsmKinds are the replicated-log message kinds, counted so Omega
// heartbeats don't pollute the per-command cost. Read requests/replies
// and lease grants/acks count too: the msgs-per-read claim must survive
// the read path's own traffic.
var rsmKinds = []string{
	rsm.KindRequest, rsm.KindPrepare, rsm.KindPromise, rsm.KindNack,
	rsm.KindAccept, rsm.KindAccepted, rsm.KindDecide, rsm.KindLearn,
	rsm.KindLeaseGrant, rsm.KindLeaseAck, rsm.KindReadReq, rsm.KindReadReply,
	// Sampled frames ride inside TRACE wrappers and are counted by the
	// wrapper kind; heartbeats are never wrapped, so including it keeps
	// msgs-per-cmd honest with -trace-dir on.
	tracing.KindTrace,
}

// readChunk is how many sequence numbers one injected ReadReqMsg covers —
// the client-side analogue of command batching: one request/reply pair
// amortized over readChunk reads.
const readChunk = 64

// result is one run's measurement.
// For the reads arm PeakPerSec covers total served operations (applied
// writes + answered reads) and the read-specific fields are populated.
type result struct {
	Name          string
	BatchMax      int
	Window        int
	Applied       int
	ElapsedSec    float64
	AppliedPerSec float64
	PeakPerSec    float64
	MsgsPerCmd    float64
	BytesPerCmd   float64
	Dropped       uint64

	ReadsPerSec   float64
	LocalReads    uint64
	FallbackReads uint64
	// MsgsPerRead is measured over a trailing pure-read window: consensus
	// messages (including lease refreshes and the read req/reply hops)
	// divided by reads answered, with no writes in flight.
	MsgsPerRead float64
	ReadP50NS   int64
	ReadP99NS   int64

	// Sharded-arm fields: group count, per-group applied counts, and the
	// shared-socket evidence (receiver-side open TCP connections, lifetime
	// sender dials, distinct directed links used) — each must equal
	// n*(n-1) no matter how many groups multiplexed over the mesh.
	Groups          int
	AppliedPerGroup []int
	OpenConns       int
	Dials           uint64
	ActiveLinks     int
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("consload", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 3, "number of replicas")
		dur      = fs.Duration("dur", 3*time.Second, "load window per run")
		seed     = fs.Int64("seed", 1, "transport randomness seed")
		batch    = fs.Int("batch", 0, "batched arm's BatchMax (0 = engine default)")
		window   = fs.Int("window", 0, "batched arm's pipelining window (0 = engine default)")
		inflight = fs.Int("inflight", 1024, "closed-loop cap on outstanding commands")
		drive    = fs.Duration("drive", 5*time.Millisecond, "engine drive tick (partial-batch flush bound)")
		reps     = fs.Int("reps", 1, "runs per arm; the best run is reported (damps single-core scheduler noise)")
		profile  = fs.String("cpuprofile", "", "write per-arm CPU profiles (suffixed <base>-<arm>.pprof) covering only the sustained load window")
		memprof  = fs.String("memprofile", "", "write per-arm heap profiles (suffixed <base>-<arm>.pprof) at the end of the load window")
		reads    = fs.Float64("reads", 0, "run a third arm with this fraction of operations as reads (e.g. 0.9); 0 disables it")
		lease    = fs.Duration("lease", 300*time.Millisecond, "leader read lease for the reads arm")
		minspeed = fs.Float64("minspeedup", 0, "fail unless batched/baseline speedup reaches this factor (CI gate; 0 disables)")
		groups   = fs.Int("groups", 0, "run a sharded arm with this many consensus groups over shared links; 0 disables it")
		mingroup = fs.Float64("mingroupspeedup", 0, "fail unless sharded/batched speedup reaches this factor (CI gate; skipped with a warning below 4 CPUs; 0 disables)")
		traceDir = fs.String("trace-dir", "", "record causal request spans and write per-arm flight-recorder dumps under this directory (subdir per arm); feed them to traceview")
		traceSmp = fs.Int("trace-sample", 1, "with -trace-dir, sample one in this many client requests")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 2 {
		return fmt.Errorf("consload: n = %d, need at least 2", *n)
	}
	if *dur <= 0 || *inflight <= 0 || *reps <= 0 {
		return fmt.Errorf("consload: dur, inflight and reps must be positive")
	}
	if *groups < 0 {
		return fmt.Errorf("consload: -groups %d must be >= 0", *groups)
	}
	if *mingroup > 0 && *groups < 1 {
		return fmt.Errorf("consload: -mingroupspeedup requires -groups")
	}

	var runs []result
	type loadArm struct {
		name          string
		batch, window int
		lease         time.Duration
		readFrac      float64
		groups        int
	}
	arms := []loadArm{
		{name: "baseline", batch: 1, window: 1},
		{name: "batched", batch: *batch, window: *window},
	}
	if *reads > 0 {
		if *reads >= 1 {
			return fmt.Errorf("consload: -reads %v must be in (0, 1)", *reads)
		}
		arms = append(arms, loadArm{name: "reads", batch: *batch, window: *window, lease: *lease, readFrac: *reads})
	}
	if *groups > 0 {
		arms = append(arms, loadArm{name: "sharded", batch: *batch, window: *window, groups: *groups})
	}
	for _, arm := range arms {
		var best result
		for i := 0; i < *reps; i++ {
			// Profiles are captured on the final rep only, covering just
			// the sustained load window (probe and lease warmup excluded).
			cpuP, memP, traceP := "", "", ""
			if i == *reps-1 {
				cpuP, memP = profPath(*profile, "cpu", arm.name), profPath(*memprof, "mem", arm.name)
				if *traceDir != "" {
					// Dump names restart per Set; a subdir per arm keeps
					// the arms' flight recorders from clobbering each other.
					traceP = filepath.Join(*traceDir, arm.name)
				}
			}
			var r result
			var err error
			if arm.groups > 0 {
				r, err = runSharded(arm.name, *n, arm.groups, *seed+int64(i), arm.batch, arm.window, *inflight, *dur, *drive, cpuP, memP)
			} else {
				r, err = runOne(arm.name, *n, *seed+int64(i), arm.batch, arm.window, *inflight, *dur, *drive, arm.lease, arm.readFrac, cpuP, memP, traceP, *traceSmp)
			}
			if err != nil {
				return err
			}
			if i == 0 || r.PeakPerSec > best.PeakPerSec {
				best = r
			}
		}
		runs = append(runs, best)
		fmt.Fprintf(out, "consload: %-8s batch=%-3d window=%-2d  %8.0f ops/sec (peak %.0f)  %6.2f msgs/cmd  %7.1f B/cmd  (%d applied in %.2fs, %d dropped)\n",
			best.Name, best.BatchMax, best.Window, best.AppliedPerSec, best.PeakPerSec, best.MsgsPerCmd, best.BytesPerCmd, best.Applied, best.ElapsedSec, best.Dropped)
		if arm.readFrac > 0 {
			fmt.Fprintf(out, "consload: %-8s reads %8.0f/sec (local %d, fallback %d)  %0.4f msgs/read  read p50 %v p99 %v\n",
				"", best.ReadsPerSec, best.LocalReads, best.FallbackReads, best.MsgsPerRead,
				time.Duration(best.ReadP50NS), time.Duration(best.ReadP99NS))
		}
		if arm.groups > 0 {
			fmt.Fprintf(out, "consload: %-8s groups=%d per-group applied %v  conns %d dials %d links %d\n",
				"", best.Groups, best.AppliedPerGroup, best.OpenConns, best.Dials, best.ActiveLinks)
		}
	}

	peaks := make(map[string]float64, len(runs))
	for _, r := range runs {
		if r.Applied == 0 {
			return fmt.Errorf("consload: run %q applied nothing — engine or transport broken", r.Name)
		}
		peaks[r.Name] = r.PeakPerSec
	}
	speedups := make(map[string]float64)
	for _, k := range [][2]string{{"batched", "baseline"}, {"sharded", "batched"}, {"reads", "batched"}} {
		if v, ok := peaks[k[0]]; ok && peaks[k[1]] > 0 {
			name := k[0] + "/" + k[1]
			speedups[name] = v / peaks[k[1]]
			fmt.Fprintf(out, "consload: speedup %-16s %.1fx\n", name, speedups[name])
		}
	}
	if v := speedups["batched/baseline"]; *minspeed > 0 && v < *minspeed {
		return fmt.Errorf("consload: batched/baseline speedup %.2fx below required %.2fx", v, *minspeed)
	}
	if *mingroup > 0 {
		if runtime.NumCPU() < 4 {
			fmt.Fprintf(out, "consload: WARNING: %d CPUs — skipping the -mingroupspeedup %.1fx gate; the sharded engine needs >= 4 cores to show scaling (rerun on a multi-core box)\n",
				runtime.NumCPU(), *mingroup)
		} else if v := speedups["sharded/batched"]; v < *mingroup {
			return fmt.Errorf("consload: sharded/batched speedup %.2fx below required %.2fx", v, *mingroup)
		}
	}
	return nil
}

// profPath derives the per-arm profile path from the flag's base path:
// ("prof.pprof", "cpu", "sharded") → "prof-cpu-sharded.pprof" when both
// cpu and mem profiles share a base, or just the arm suffix when the base
// already names the kind ("cpu.pprof" → "cpu-sharded.pprof").
func profPath(base, kind, arm string) string {
	if base == "" {
		return ""
	}
	ext := filepath.Ext(base)
	stem := strings.TrimSuffix(base, ext)
	if !strings.Contains(stem, kind) {
		arm = kind + "-" + arm
	}
	return stem + "-" + arm + ext
}

// readLoop is the client-side read bookkeeping for the reads arm: a
// closed loop of chunked ReadReqMsgs with per-chunk latency tracking.
// Submission runs on the load loop; completion runs on the origin
// replica's node loop via the OnReadReply hook.
type readLoop struct {
	mu      sync.Mutex
	sent    map[uint64]time.Time // chunk base seq → submit time
	nextSeq uint64
	lat     *telemetry.Histogram

	submitted atomic.Int64 // reads submitted (chunk count × readChunk)
	answered  atomic.Int64 // reads answered
	lost      atomic.Int64 // reads written off after chunkTimeout
}

// chunkTimeout writes off an unanswered chunk so a dropped frame can
// never wedge the closed loop.
const chunkTimeout = time.Second

func newReadLoop() *readLoop {
	return &readLoop{sent: make(map[uint64]time.Time), nextSeq: 1, lat: telemetry.NewHistogram(1)}
}

// onReply is the OnReadReply hook body.
func (rl *readLoop) onReply(m rsm.ReadReplyMsg) {
	rl.mu.Lock()
	t0, ok := rl.sent[m.Seq]
	if ok {
		delete(rl.sent, m.Seq)
	}
	rl.mu.Unlock()
	if ok {
		rl.lat.Record(0, time.Since(t0))
		rl.answered.Add(int64(m.Count))
	}
}

// outstanding counts unanswered chunks, writing off any older than
// chunkTimeout.
func (rl *readLoop) outstanding() int {
	now := time.Now()
	rl.mu.Lock()
	defer rl.mu.Unlock()
	for seq, t0 := range rl.sent {
		if now.Sub(t0) > chunkTimeout {
			delete(rl.sent, seq)
			rl.lost.Add(readChunk)
		}
	}
	return len(rl.sent)
}

// next registers one chunk and returns the request to inject.
func (rl *readLoop) next(origin node.ID) rsm.ReadReqMsg {
	rl.mu.Lock()
	seq := rl.nextSeq
	rl.nextSeq += readChunk
	rl.sent[seq] = time.Now()
	rl.mu.Unlock()
	rl.submitted.Add(readChunk)
	return rsm.ReadReqMsg{Seq: seq, Count: readChunk, Origin: origin}
}

// sample is one throughput observation: cumulative served operations at t.
type sample struct {
	t time.Time
	c int
}

// peakRate returns the best served-ops rate over any >=250ms span of the
// samples. On one-core boxes whole-run means are hostage to scheduler
// regimes; the peak window reads the engine's demonstrated capacity.
func peakRate(samples []sample) float64 {
	var peak float64
	for i := 0; i < len(samples); i++ {
		for j := i + 1; j < len(samples); j++ {
			span := samples[j].t.Sub(samples[i].t)
			if span < 250*time.Millisecond {
				continue
			}
			if rate := float64(samples[j].c-samples[i].c) / span.Seconds(); rate > peak {
				peak = rate
			}
			break // longer spans from i only dilute the window
		}
	}
	return peak
}

// startCPUProfile begins a CPU profile into path (no-op on ""), returning
// a stop func. Started after probe/lease warmup so the profile covers only
// the sustained load window.
func startCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeHeapProfile dumps a post-GC heap profile to path (no-op on "").
func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// runOne boots a fresh TCP cluster with the given engine knobs, drives the
// closed loop for dur, and measures from first submit to drain. When
// readFrac > 0 the loop mixes chunked reads with the writes at the given
// ratio and a trailing pure-read window measures msgs-per-read.
func runOne(name string, n int, seed int64, batchMax, window, inflight int, dur, driveInterval, lease time.Duration, readFrac float64, cpuProf, memProf, traceDir string, traceSample int) (result, error) {
	// Flight recorder: nil without -trace-dir, and every method on a nil
	// Set no-ops, so the measured path stays byte-for-byte the untraced one.
	var tset *tracing.Set
	if traceDir != "" {
		tset = tracing.New(tracing.Config{Procs: n, Dir: traceDir, SampleEvery: traceSample})
	}
	autos := make([]node.Automaton, n)
	dets := make([]*core.Detector, n)
	logs := make([]*rsm.Node, n)
	for i := 0; i < n; i++ {
		dets[i] = core.New(core.WithEta(5*time.Millisecond), core.WithRebuff())
		logs[i] = rsm.New(dets[i], rsm.Config{
			DriveInterval: driveInterval,
			BatchMax:      batchMax,
			Window:        window,
			Lease:         lease,
			Tracer:        tset.Tracer(i),
		})
		autos[i] = node.Compose(dets[i], logs[i])
		telemetry.Attach(tset.Sink(), nil, obs.NoGroup, telemetry.Process{ID: node.ID(i), History: dets[i].History()})
	}
	var reads *readLoop
	if readFrac > 0 {
		reads = newReadLoop()
		for i := range logs {
			logs[i].OnReadReply(reads.onReply)
		}
	}
	// The ingress link carries the request flood AND that follower's
	// consensus replies; size the queue above the closed-loop cap so load
	// can never crowd out protocol traffic.
	c, err := transport.NewTCPCluster(transport.Config{
		N: n, Seed: seed, Quiet: true, SendQueue: 2*inflight + 1024,
		Observer: tset.Sink(),
	}, autos)
	if err != nil {
		return result{}, err
	}
	// The cluster clock's zero is its construction instant; anchor span
	// wall times there so client StartTrace stamps line up with env.Now().
	tset.SetWallStart(time.Now())
	c.Start()
	defer c.Stop()

	// Wait for one stable leader with a prepared ballot.
	leader, err := awaitLeader(dets, 10*time.Second)
	if err != nil {
		return result{}, err
	}
	// Clients enter through one follower — a single ingress link keeps the
	// request stream coalescing well — and throughput is measured at a
	// different non-leader replica.
	follower := (int(leader) + 1) % n
	observer := (int(leader) + 2) % n

	// Probe until the leader's ballot is prepared: requests that land
	// before phase 1 completes are dropped (clients re-forward), so retry
	// a probe command until it applies everywhere we measure.
	probeDeadline := time.Now().Add(10 * time.Second)
	for logs[observer].Recorder().Count() == 0 {
		if time.Now().After(probeDeadline) {
			return result{}, fmt.Errorf("consload: leader never served the probe command")
		}
		c.Inject(node.ID(follower), leader, rsm.RequestMsg{V: consensus.Value(name + "-probe")})
		time.Sleep(50 * time.Millisecond)
	}
	// With leases on, wait until the leader actually holds one (grants
	// ride the probe's accepts) so the measured run serves reads locally
	// from the first operation.
	if lease > 0 {
		leaseDeadline := time.Now().Add(5 * time.Second)
		for !logs[leader].LeaseHeld() {
			if time.Now().After(leaseDeadline) {
				return result{}, fmt.Errorf("consload: leader never acquired the read lease")
			}
			c.Inject(node.ID(follower), leader, rsm.RequestMsg{V: consensus.Value(name + "-lease-probe")})
			time.Sleep(20 * time.Millisecond)
		}
	}

	stopProf, err := startCPUProfile(cpuProf)
	if err != nil {
		return result{}, err
	}

	msgsBefore := kindTotal(c.Stats())
	bytesBefore := c.Stats().WireBytes()
	droppedBefore := c.Stats().Dropped()
	appliedBefore := logs[observer].Recorder().Count()

	// Closed loop: keep at most inflight commands outstanding, measured
	// against the observer's applied count. Requests enter through a
	// follower — the real client path — and are forwarded to the leader.
	// Applied counts are sampled as the run goes so peak sustained
	// throughput can be read off afterwards.
	// maxReadChunks caps outstanding read chunks — a separate closed loop
	// riding alongside the write loop.
	const maxReadChunks = 64
	begin := time.Now()
	deadline := begin.Add(dur)
	samples := []sample{{begin, 0}}
	submitted := 0
	for time.Now().Before(deadline) {
		applied := logs[observer].Recorder().Count() - appliedBefore
		served := applied
		if reads != nil {
			served += int(reads.answered.Load())
		}
		if now := time.Now(); now.Sub(samples[len(samples)-1].t) >= 50*time.Millisecond {
			samples = append(samples, sample{now, served})
		}
		// Keep reads flowing at readFrac of total operations: for a 90/10
		// mix, nine reads per write submitted.
		if reads != nil {
			target := int64(float64(submitted) * readFrac / (1 - readFrac))
			for reads.submitted.Load() < target && reads.outstanding() < maxReadChunks {
				c.Inject(node.ID(follower), leader, reads.next(node.ID(follower)))
			}
		}
		room := inflight - (submitted - applied)
		if room <= 0 {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		if room > 64 {
			room = 64 // bursts bounded below the send queue
		}
		// The client batches its queue into request envelopes of the
		// engine's batch size — the request hop amortizes exactly like
		// phase 2 does (BatchRequest of one command is a plain request).
		chunkMax := logs[0].Config().BatchMax
		for room > 0 {
			chunk := chunkMax
			if chunk > room {
				chunk = room
			}
			cmds := make([]consensus.Value, chunk)
			for k := range cmds {
				cmds[k] = consensus.Value(fmt.Sprintf("%s-%d", name, submitted))
				submitted++
			}
			// Client-side trace ingress: a sampled request envelope carries
			// its context on the wire, and the root "request" span's start
			// is the submit instant.
			req := node.Message(rsm.BatchRequest(cmds))
			if ctx := tset.Tracer(follower).StartTrace(tset.Stamp(), "request"); ctx.Valid() {
				req = tracing.Wrap{Ctx: ctx, Inner: req}
			}
			c.Inject(node.ID(follower), leader, req)
			room -= chunk
		}
		runtime.Gosched() // single-core boxes: let the stations work the burst
	}
	// Drain: wait until the observer's applied count stops moving (lost
	// requests — e.g. a queue overflow — are simply not counted).
	last, lastMove := logs[observer].Recorder().Count(), time.Now()
	for time.Since(lastMove) < time.Second && last-appliedBefore < submitted {
		time.Sleep(10 * time.Millisecond)
		if cur := logs[observer].Recorder().Count(); cur > last {
			last, lastMove = cur, time.Now()
		}
	}
	stopProf()
	if err := writeHeapProfile(memProf); err != nil {
		return result{}, err
	}
	elapsed := lastMove.Sub(begin)
	applied := last - appliedBefore
	served := applied
	if reads != nil {
		served += int(reads.answered.Load())
	}
	samples = append(samples, sample{lastMove, served})
	msgs := kindTotal(c.Stats()) - msgsBefore
	wireBytes := c.Stats().WireBytes() - bytesBefore

	// Trailing pure-read window: with no writes in flight the only
	// consensus traffic is the read req/reply hops and idle lease
	// refreshes, so messages ÷ reads over this span is the zero-message
	// read-path claim, measured.
	var msgsPerRead float64
	if reads != nil {
		drainReads := time.Now().Add(time.Second)
		for reads.outstanding() > 0 && time.Now().Before(drainReads) {
			time.Sleep(5 * time.Millisecond)
		}
		msgsA, readsA := kindTotal(c.Stats()), reads.answered.Load()
		pureDeadline := time.Now().Add(500 * time.Millisecond)
		for time.Now().Before(pureDeadline) {
			for reads.outstanding() < maxReadChunks {
				c.Inject(node.ID(follower), leader, reads.next(node.ID(follower)))
			}
			time.Sleep(200 * time.Microsecond)
		}
		drainReads = time.Now().Add(time.Second)
		for reads.outstanding() > 0 && time.Now().Before(drainReads) {
			time.Sleep(5 * time.Millisecond)
		}
		if delta := reads.answered.Load() - readsA; delta > 0 {
			msgsPerRead = float64(kindTotal(c.Stats())-msgsA) / float64(delta)
		}
	}

	peak := peakRate(samples)

	r := result{
		Name:       name,
		BatchMax:   logs[0].Config().BatchMax,
		Window:     logs[0].Config().Window,
		Applied:    applied,
		ElapsedSec: elapsed.Seconds(),
		Dropped:    c.Stats().Dropped() - droppedBefore,
		PeakPerSec: peak,
	}
	if elapsed > 0 {
		r.AppliedPerSec = float64(applied) / elapsed.Seconds()
	}
	if r.PeakPerSec < r.AppliedPerSec {
		r.PeakPerSec = r.AppliedPerSec // short runs: the whole run is the window
	}
	if applied > 0 {
		r.MsgsPerCmd = float64(msgs) / float64(applied)
		r.BytesPerCmd = float64(wireBytes) / float64(applied)
	}
	if reads != nil {
		answeredMixed := int64(served - applied)
		// Sum over replicas: leadership (and with it the lease) can move
		// mid-run when the serving core starves heartbeats, and the new
		// leaseholder keeps serving forwarded reads locally.
		for i := range logs {
			r.LocalReads += logs[i].LocalReads()
			r.FallbackReads += logs[i].FallbackReads()
		}
		r.MsgsPerRead = msgsPerRead
		if elapsed > 0 {
			r.ReadsPerSec = float64(answeredMixed) / elapsed.Seconds()
		}
		lat := reads.lat.Snapshot()
		r.ReadP50NS = int64(lat.Quantile(0.50))
		r.ReadP99NS = int64(lat.Quantile(0.99))
	}
	if tset != nil {
		// Stop before the final dump (idempotent with the deferred Stop):
		// connection teardown drops in-flight frames, and those triggers
		// must not write dumps after the "final" one.
		c.Stop()
		path, err := tset.Final()
		if err != nil {
			return result{}, err
		}
		fmt.Printf("consload: %-8s %d anomaly dumps; final trace dump %s\n", name, tset.Triggered(), path)
	}
	return r, nil
}

// runSharded boots a fresh TCP cluster of n sharded processes — G
// independent consensus groups (internal/consensus/group) multiplexed over
// the shared per-peer links — and drives one closed write loop per group
// in parallel, each entering at its own group's physical leader (the id
// rotation spreads leaders across processes). Throughput is the aggregate
// applied count across groups; the run FAILS unless the cluster held
// exactly one TCP connection per directed peer pair, so the shared-socket
// property is part of the measurement, not a claim.
//
// Message accounting: every sharded frame carries the GROUP wrapper kind,
// so msgs-per-cmd counts KindGroup — the wrapped Omega heartbeats ride
// along in the numerator, which only makes the reported cost conservative.
func runSharded(name string, n, groups int, seed int64, batchMax, window, inflight int, dur, driveInterval time.Duration, cpuProf, memProf string) (result, error) {
	autos := make([]node.Automaton, n)
	dets := make([][]*core.Detector, n)
	logs := make([][]*rsm.Node, n)
	for i := 0; i < n; i++ {
		dets[i] = make([]*core.Detector, groups)
		logs[i] = make([]*rsm.Node, groups)
		i := i
		autos[i] = group.New(group.Config{
			Groups: groups,
			Build: func(g int) node.Automaton {
				dets[i][g] = core.New(core.WithEta(5*time.Millisecond), core.WithRebuff())
				logs[i][g] = rsm.New(dets[i][g], rsm.Config{
					DriveInterval: driveInterval,
					BatchMax:      batchMax,
					Window:        window,
				})
				return node.Compose(dets[i][g], logs[i][g])
			},
		})
	}
	c, err := transport.NewTCPCluster(transport.Config{
		N: n, Seed: seed, Quiet: true, SendQueue: 2*inflight + 1024,
	}, autos)
	if err != nil {
		return result{}, err
	}
	c.Start()
	defer func() {
		for _, a := range autos {
			a.(*group.Engine).Halt()
		}
	}()
	defer c.Stop()

	// Every group must stabilize: all processes agree on the group's
	// logical leader, which the rotation places on physical g mod n.
	leaderPhys := make([]node.ID, groups)
	follower := make([]node.ID, groups)
	observer := make([]int, groups)
	for g := 0; g < groups; g++ {
		col := make([]*core.Detector, n)
		for i := 0; i < n; i++ {
			col[i] = dets[i][g]
		}
		l, err := awaitLeader(col, 10*time.Second)
		if err != nil {
			return result{}, fmt.Errorf("group %d: %w", g, err)
		}
		leaderPhys[g] = group.Physical(l, g, n)
		follower[g] = node.ID((int(leaderPhys[g]) + 1) % n)
		observer[g] = (int(leaderPhys[g]) + 2) % n
	}

	// Probe every group until its leader's ballot is prepared.
	probeDeadline := time.Now().Add(10 * time.Second)
	for g := 0; g < groups; g++ {
		for logs[observer[g]][g].Recorder().Count() == 0 {
			if time.Now().After(probeDeadline) {
				return result{}, fmt.Errorf("consload: group %d leader never served the probe command", g)
			}
			c.Inject(follower[g], leaderPhys[g], group.Wrap(g, rsm.RequestMsg{V: consensus.Value(fmt.Sprintf("%s-g%d-probe", name, g))}))
			time.Sleep(50 * time.Millisecond)
		}
	}

	stopProf, err := startCPUProfile(cpuProf)
	if err != nil {
		return result{}, err
	}

	msgsBefore := c.Stats().KindCount(group.KindGroup)
	bytesBefore := c.Stats().WireBytes()
	droppedBefore := c.Stats().Dropped()
	appliedBefore := make([]int, groups)
	for g := range appliedBefore {
		appliedBefore[g] = logs[observer[g]][g].Recorder().Count()
	}
	appliedByGroup := func(g int) int {
		return logs[observer[g]][g].Recorder().Count() - appliedBefore[g]
	}
	appliedNow := func() int {
		total := 0
		for g := 0; g < groups; g++ {
			total += appliedByGroup(g)
		}
		return total
	}

	// One closed loop per group on its own goroutine — the multi-core
	// ingress the sharded engine exists for. The global inflight budget is
	// split evenly across groups.
	perCap := inflight / groups
	if perCap < 1 {
		perCap = 1
	}
	begin := time.Now()
	loadDeadline := begin.Add(dur)
	submitted := make([]int, groups)
	var wg sync.WaitGroup
	wg.Add(groups)
	for g := 0; g < groups; g++ {
		go func(g int) {
			defer wg.Done()
			sub := 0
			chunkMax := logs[0][g].Config().BatchMax
			for time.Now().Before(loadDeadline) {
				room := perCap - (sub - appliedByGroup(g))
				if room <= 0 {
					time.Sleep(200 * time.Microsecond)
					continue
				}
				if room > 64 {
					room = 64 // bursts bounded below the send queue
				}
				for room > 0 {
					chunk := chunkMax
					if chunk > room {
						chunk = room
					}
					cmds := make([]consensus.Value, chunk)
					for k := range cmds {
						cmds[k] = consensus.Value(fmt.Sprintf("%s-g%d-%d", name, g, sub))
						sub++
					}
					c.Inject(follower[g], leaderPhys[g], group.Wrap(g, rsm.BatchRequest(cmds)))
					room -= chunk
				}
				runtime.Gosched()
			}
			submitted[g] = sub
		}(g)
	}

	// Aggregate sampler for the peak window, on the main goroutine.
	samples := []sample{{begin, 0}}
	for time.Now().Before(loadDeadline) {
		time.Sleep(50 * time.Millisecond)
		samples = append(samples, sample{time.Now(), appliedNow()})
	}
	wg.Wait()
	totalSubmitted := 0
	for _, s := range submitted {
		totalSubmitted += s
	}

	// Drain: wait until the aggregate applied count stops moving.
	last, lastMove := appliedNow(), time.Now()
	for time.Since(lastMove) < time.Second && last < totalSubmitted {
		time.Sleep(10 * time.Millisecond)
		if cur := appliedNow(); cur > last {
			last, lastMove = cur, time.Now()
		}
	}
	stopProf()
	if err := writeHeapProfile(memProf); err != nil {
		return result{}, err
	}
	elapsed := lastMove.Sub(begin)
	samples = append(samples, sample{lastMove, last})
	msgs := c.Stats().KindCount(group.KindGroup) - msgsBefore
	wireBytes := c.Stats().WireBytes() - bytesBefore

	// The shared-socket assertion, from counters: G groups' frames rode
	// exactly n*(n-1) sockets, each dialed once, spanning exactly the full
	// mesh of directed links.
	wantConns := n * (n - 1)
	if got := c.OpenConns(); got != wantConns {
		return result{}, fmt.Errorf("consload: sharded cluster holds %d open conns, want %d — groups opened extra sockets", got, wantConns)
	}
	if got := c.Dials(); got != uint64(wantConns) {
		return result{}, fmt.Errorf("consload: sharded cluster dialed %d times, want %d", got, wantConns)
	}

	r := result{
		Name:        name,
		Groups:      groups,
		BatchMax:    logs[0][0].Config().BatchMax,
		Window:      logs[0][0].Config().Window,
		Applied:     last,
		ElapsedSec:  elapsed.Seconds(),
		Dropped:     c.Stats().Dropped() - droppedBefore,
		PeakPerSec:  peakRate(samples),
		OpenConns:   c.OpenConns(),
		Dials:       c.Dials(),
		ActiveLinks: c.Stats().LinksUsedSince(0),
	}
	for g := 0; g < groups; g++ {
		r.AppliedPerGroup = append(r.AppliedPerGroup, appliedByGroup(g))
	}
	if elapsed > 0 {
		r.AppliedPerSec = float64(last) / elapsed.Seconds()
	}
	if r.PeakPerSec < r.AppliedPerSec {
		r.PeakPerSec = r.AppliedPerSec // short runs: the whole run is the window
	}
	if last > 0 {
		r.MsgsPerCmd = float64(msgs) / float64(last)
		r.BytesPerCmd = float64(wireBytes) / float64(last)
	}
	return r, nil
}

// awaitLeader blocks until every detector's history agrees on one leader.
func awaitLeader(dets []*core.Detector, bound time.Duration) (node.ID, error) {
	deadline := time.Now().Add(bound)
	for time.Now().Before(deadline) {
		leader := node.None
		ok := true
		for _, d := range dets {
			l := d.History().Current()
			if l == node.None || (leader != node.None && l != leader) {
				ok = false
				break
			}
			leader = l
		}
		if ok {
			return leader, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return node.None, fmt.Errorf("consload: no stable leader within %v", bound)
}

func kindTotal(s interface{ KindCount(string) uint64 }) uint64 {
	var total uint64
	for _, k := range rsmKinds {
		total += s.KindCount(k)
	}
	return total
}
