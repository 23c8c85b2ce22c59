package main

import (
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/traceview"
	"repro/internal/tracing"
	"repro/internal/wire"
)

// This file is the traced pass: timing wrappers around the layers'
// public seams, all written here so the program itself carries no
// benchmark code. A wrapper costs one atomic load while probes are off,
// which lets one cluster serve an untraced and a traced window back to
// back; their difference is the tracing overhead.

const (
	layerCore = iota
	layerRSM
	numLayers
)

// layerProbe accumulates one protocol layer's time across all replicas:
// busy is time inside Deliver+Tick, send the part of it spent in
// Env.Send/Broadcast (transport, codec and observer work nested under
// the layer), so busy-send-store is the layer's own time.
type layerProbe struct {
	busyNS, sendNS atomic.Int64
}

type probes struct {
	on     atomic.Bool
	layers [numLayers]layerProbe

	injectNS, injects atomic.Int64

	flushes, flushFrames, flushBytes atomic.Int64

	storeNS, storeCalls atomic.Int64
	fsyncs              atomic.Int64
	appendBytes         atomic.Int64

	mu        sync.Mutex
	storeHist hist
	fsyncHist hist
	sampleCtr uint64
	samples   []sampledMsg // every 64th sent message, for the codec replay

	tset *tracing.Set

	// omega-only link use in the last half of a simulated run
	omegaFrom  sim.Time
	omegaLinks map[[2]int]bool
}

type sampledMsg struct {
	from node.ID
	m    node.Message
}

const (
	sampleEvery = 64
	maxSamples  = 4096
)

func newProbes(procs int) *probes {
	return &probes{
		tset: tracing.New(tracing.Config{Procs: procs, SampleEvery: sampleEvery, Limit: 1 << 14}),
	}
}

// tracer returns replica i's span recorder, nil when p is.
func (p *probes) tracer(i int) *tracing.Tracer {
	if p == nil {
		return nil
	}
	return p.tset.Tracer(i)
}

// wrap puts the timing decorator around one layer's automaton; a nil
// receiver (the untraced pass) returns the automaton untouched.
func (p *probes) wrap(layer int, id node.ID, a node.Automaton) node.Automaton {
	if p == nil {
		return a
	}
	return &timedAuto{inner: a, p: p, lp: &p.layers[layer], id: id}
}

type timedAuto struct {
	inner node.Automaton
	p     *probes
	lp    *layerProbe
	id    node.ID
}

func (t *timedAuto) Start(env node.Env) {
	t.inner.Start(&timedEnv{Env: env, p: t.p, lp: t.lp, id: t.id})
}

func (t *timedAuto) Deliver(from node.ID, m node.Message) {
	t.p.timed(&t.lp.busyNS, func() { t.inner.Deliver(from, m) })
}

func (t *timedAuto) Tick(key string) {
	t.p.timed(&t.lp.busyNS, func() { t.inner.Tick(key) })
}

// timed runs f and, while probes are on, adds its duration to acc and
// returns it; off, it costs one atomic load and returns 0.
func (p *probes) timed(acc *atomic.Int64, f func()) time.Duration {
	if !p.on.Load() {
		f()
		return 0
	}
	t0 := time.Now()
	f()
	d := time.Since(t0)
	acc.Add(int64(d))
	return d
}

// timedEnv times what a layer spends handing messages to the runtime.
type timedEnv struct {
	node.Env
	p  *probes
	lp *layerProbe
	id node.ID
}

func (e *timedEnv) Send(to node.ID, m node.Message) {
	if e.p.timed(&e.lp.sendNS, func() { e.Env.Send(to, m) }) > 0 {
		e.p.sample(e.id, m)
	}
}

func (e *timedEnv) Broadcast(m node.Message) {
	if e.p.timed(&e.lp.sendNS, func() { e.Env.Broadcast(m) }) > 0 {
		e.p.sample(e.id, m)
	}
}

func (p *probes) sample(from node.ID, m node.Message) {
	p.mu.Lock()
	p.sampleCtr++
	if p.sampleCtr%sampleEvery == 0 {
		if len(p.samples) < maxSamples {
			p.samples = append(p.samples, sampledMsg{from, m})
		} else {
			p.samples[(p.sampleCtr/sampleEvery)%maxSamples] = sampledMsg{from, m}
		}
	}
	p.mu.Unlock()
}

// timedStore decorates the durable.Store seam.
type timedStore struct {
	durable.Store
	p *probes
}

func (p *probes) wrapStore(s durable.Store) durable.Store {
	if p == nil {
		return s
	}
	return &timedStore{Store: s, p: p}
}

func (s *timedStore) timed(f func()) {
	if d := s.p.timed(&s.p.storeNS, f); d > 0 {
		s.p.storeCalls.Add(1)
		s.p.mu.Lock()
		s.p.storeHist.record(int64(d))
		s.p.mu.Unlock()
	}
}

func (s *timedStore) Promise(b uint64) { s.timed(func() { s.Store.Promise(b) }) }
func (s *timedStore) Ballot(b uint64)  { s.timed(func() { s.Store.Ballot(b) }) }
func (s *timedStore) Accept(inst, b uint64, v string) {
	s.timed(func() { s.Store.Accept(inst, b, v) })
}
func (s *timedStore) Decide(inst uint64, v string) { s.timed(func() { s.Store.Decide(inst, v) }) }

// walOptions adds the WAL hooks that feed the durable rows.
func (p *probes) walOptions(o durable.Options) durable.Options {
	if p == nil {
		return o
	}
	o.OnAppend = func(n int) { p.appendBytes.Add(int64(n)) }
	o.OnFsync = func(d time.Duration) {
		p.fsyncs.Add(1)
		p.mu.Lock()
		p.fsyncHist.record(int64(d))
		p.mu.Unlock()
	}
	return o
}

func (p *probes) onFlush(_, _ node.ID, frames, bytes int) {
	if !p.on.Load() {
		return
	}
	p.flushes.Add(1)
	p.flushFrames.Add(int64(frames))
	p.flushBytes.Add(int64(bytes))
}

// omegaSink notes which directed links carry Omega-kind messages from
// omegaFrom on: the paper's n-1 links claim, read from outside.
type omegaSink struct {
	obs.Nop
	p     *probes
	kinds map[obs.Kind]bool
}

func (s omegaSink) OnSend(t sim.Time, from, to int, kind obs.Kind) {
	if t >= s.p.omegaFrom && s.kinds[kind] {
		s.p.omegaLinks[[2]int{from, to}] = true
	}
}

func (p *probes) omegaObserver(from sim.Time, kinds []string) obs.Sink {
	p.omegaFrom = from
	p.omegaLinks = make(map[[2]int]bool)
	s := omegaSink{p: p, kinds: make(map[obs.Kind]bool)}
	for _, k := range kinds {
		s.kinds[obs.Intern(k)] = true
	}
	return s
}

// codecCost replays the sampled message mix through the codec the
// transport uses and returns encode ns, decode ns and allocations per
// message. No samples (a simulated run: no codec on the path) reads 0.
func (p *probes) codecCost() (encNS, decNS, allocs float64) {
	p.mu.Lock()
	msgs := append([]sampledMsg(nil), p.samples...)
	p.mu.Unlock()
	if len(msgs) == 0 {
		return 0, 0, 0
	}
	codec := wire.NewCodec()
	frames := make([][]byte, len(msgs))
	for i, s := range msgs {
		b, err := codec.MarshalEnvelope(s.from, s.m)
		if err != nil {
			return 0, 0, 0
		}
		frames[i] = b
	}
	rounds := 200000/len(msgs) + 1
	total := float64(rounds * len(msgs))
	buf := make([]byte, 0, 4096)
	a0 := heapAllocs()
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, s := range msgs {
			buf, _ = codec.MarshalEnvelopeAppend(buf[:0], s.from, s.m)
		}
	}
	encNS = float64(time.Since(t0)) / total
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, f := range frames {
			if _, err := codec.UnmarshalEnvelope(f); err != nil {
				return 0, 0, 0
			}
		}
	}
	decNS = float64(time.Since(t0)) / total
	allocs = float64(heapAllocs()-a0) / total
	return encNS, decNS, allocs
}

// sinkCost times the observer pipeline's per-event record on a live
// stats sink. It adds counts, so callers read their counters first.
func sinkCost(s obs.Sink) float64 {
	const n = 200000
	k := obs.Intern("RSM-ACCEPT")
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s.OnSend(sim.Time(i), 0, 1, k)
	}
	return float64(time.Since(t0)) / n
}

// stages reads the request stage breakdown, in ms, out of the span rings
// through internal/traceview, which only loads files.
func (p *probes) stages(tmp string) (queue, quorum, apply float64, err error) {
	f, err := os.CreateTemp(tmp, "spans-*.json") // a name of its own: runs may share tmp
	if err != nil {
		return 0, 0, 0, err
	}
	path := f.Name()
	defer os.Remove(path)
	err = p.tset.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, 0, err
	}
	m, err := traceview.Load(path)
	if err != nil {
		return 0, 0, 0, err
	}
	var qs, ms, as []float64
	for _, r := range traceview.Requests(traceview.BuildTraces(m)) {
		if r.Complete {
			qs = append(qs, float64(r.Stages.Queue)/1e6)
			ms = append(ms, float64(r.Stages.Quorum)/1e6)
			as = append(as, float64(r.Stages.Apply)/1e6)
		}
	}
	return median(qs), median(ms), median(as), nil
}

func (p *probes) droppedSpans(procs int) uint64 {
	var n uint64
	for i := 0; i < procs; i++ {
		n += p.tset.Tracer(i).Dropped()
	}
	return n
}
