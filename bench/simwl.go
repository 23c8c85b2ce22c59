package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// simBoots is how many extra worlds sim_steady boots after each
// repetition for set-up time: a boot takes a twentieth of a millisecond,
// too short to time from a few.
const simBoots = 50

// simIngress is the replica the simulated client submits at. Replica 0
// leads first and replica 1 succeeds it when 0 is crashed, so replica 2
// is a follower throughout.
const simIngress = node.ID(2)

// simWorld is one seeded node.World with the client's hooks installed
// at the ingress: boot, load and check are separate steps so that only
// the load is timed.
type simWorld struct {
	w     workload
	seed  int64
	world *node.World
	dets  []*core.Detector
	logs  []*rsm.Node
	in    *ingress
	ops   *opLog
	pay   *payload
	p     *probes // nil on untraced rounds

	setupWall time.Duration
	loadWall  time.Duration
	loadStart sim.Time
	loadEnd   sim.Time
	crashAt   sim.Time // 0: no crash

	lastApply sim.Time
	downtime  time.Duration // longest gap between client applies at the ingress from the crash on

	halfOmega, halfHB uint64 // kind counts when the last half of the load began
	err               error
}

// bootSim builds the world and runs it until a probe command submitted
// at the ingress has been applied there.
func bootSim(w workload, seed int64, p *probes) *simWorld {
	t0 := time.Now()
	s := &simWorld{w: w, seed: seed, p: p, ops: new(opLog), pay: newPayload(seed)}
	cfg := node.WorldConfig{N: simN, Seed: seed, DefaultLink: network.Timely(simLinkDelta)}
	if p != nil {
		cfg.Observer = p.omegaObserver(sim.TimeMax, omegaKinds)
	}
	world, err := node.NewWorld(cfg)
	if err != nil {
		s.err = err
		return s
	}
	s.world = world
	s.in = newIngress(s.ops)
	s.in.nowNS = func() int64 { return int64(world.Kernel.Now()) }
	for i := 0; i < simN; i++ {
		rc := engineConfig()
		rc.Tracer = p.tracer(i)
		det := newDetector()
		log := rsm.New(det, rc)
		s.dets = append(s.dets, det)
		s.logs = append(s.logs, log)
		world.SetAutomaton(node.ID(i), node.Compose(p.wrap(layerCore, node.ID(i), det), p.wrap(layerRSM, node.ID(i), log)))
	}
	s.logs[simIngress].OnApply(s.onApply)
	world.Start()

	// Phase 1 needs a drive tick and a round trip; a command submitted
	// before it completes would wait out the engine's 100ms re-forward.
	world.RunFor(20 * time.Millisecond)
	s.logs[simIngress].Submit(consensus.Value(probePrefix + "0"))
	applied := false
	world.RunUntil(world.Kernel.Now().Add(time.Second), func() bool {
		select {
		case <-s.in.probe:
			applied = true
		default:
		}
		return applied
	})
	if !applied {
		s.err = fmt.Errorf("%s seed %d: probe command not applied within 1s of simulated time", w.Name, seed)
	}
	s.setupWall = time.Since(t0)
	return s
}

func (s *simWorld) onApply(inst, cmd int, v consensus.Value) {
	s.in.onApply(inst, cmd, v)
	if _, ok := commandSeq(v); !ok {
		return
	}
	now := s.world.Kernel.Now()
	if s.crashAt != 0 && now >= s.crashAt {
		from := s.lastApply
		if from < s.crashAt {
			from = s.crashAt
		}
		if gap := now.Sub(from); gap > s.downtime {
			s.downtime = gap
		}
	}
	s.lastApply = now
}

// load submits writes at the ingress on the workload's schedule in
// simulated time until end, crashing the leader at crashAt if set, and
// runs the world until every command has been applied or a client
// timeout past the end.
func (s *simWorld) load(end, crashAt sim.Time) {
	if s.err != nil {
		return
	}
	k := s.world.Kernel
	s.crashAt = crashAt
	s.loadStart = k.Now().Add(time.Millisecond)
	s.loadEnd = end
	period := time.Second / time.Duration(s.w.Rate)
	total := int64(end.Sub(s.loadStart) / period)
	if crashAt != 0 {
		s.world.CrashAt(0, crashAt)
	}
	half := s.loadStart.Add(end.Sub(s.loadStart) / 2)
	if s.p != nil {
		s.p.omegaFrom = half
		s.p.on.Store(true)
	}
	k.ScheduleAt(half, func() {
		s.halfOmega = sumKinds(s.world.Stats, omegaKinds)
		s.halfHB = s.world.Stats.KindCount(core.KindLeader)
	})
	var submit func()
	submit = func() {
		seq, o := s.ops.add()
		o.intended = int64(k.Now())
		o.sent = o.intended
		s.logs[simIngress].Submit(s.pay.command(seq))
		if s.w.Failover {
			k.Schedule(failoverRetry, func() { s.retry(seq, o) })
		}
		if seq+1 < total {
			k.ScheduleAt(s.loadStart.Add(time.Duration(seq+1)*period), submit)
		}
	}
	k.ScheduleAt(s.loadStart, submit)

	t0 := time.Now()
	s.world.RunUntil(end, nil)
	s.world.RunUntil(end.Add(clientTO), func() bool { return s.in.writesDone.Load() >= total })
	s.loadWall = time.Since(t0)
	if s.p != nil {
		s.p.on.Store(false)
	}
	if crashAt != 0 && s.lastApply < crashAt {
		s.downtime = end.Sub(crashAt) // service never came back
	}
}

// retry is the failover client's timer: while its command has not been
// applied at the ingress it submits the same bytes again, every
// failoverRetry. The copies are applied too (at-least-once) and counted
// once, by id.
func (s *simWorld) retry(seq int64, o *op) {
	if o.done.Load() != 0 {
		return
	}
	o.retried = true
	s.logs[simIngress].Submit(s.pay.command(seq))
	s.world.Kernel.Schedule(failoverRetry, func() { s.retry(seq, o) })
}

// simTally is what one world's op records and counters say.
type simTally struct {
	attempted, failed, committed int64
	applied, instances           int64 // at the ingress, fillers included
	lat                          hist
	rsmMsgs, sends, events       uint64
	omegaHalf, hbHalf            uint64
	halfSecs                     float64
	leaderChanges                int
	accusations                  uint64
	omegaLinks                   int
	retained                     int
	downtime                     time.Duration
}

func (s *simWorld) tally() simTally {
	t := simTally{
		rsmMsgs:   sumKinds(s.world.Stats, rsmKinds),
		sends:     s.world.Stats.TotalSent(),
		events:    s.world.Kernel.Processed(),
		omegaHalf: sumKinds(s.world.Stats, omegaKinds) - s.halfOmega,
		hbHalf:    s.world.Stats.KindCount(core.KindLeader) - s.halfHB,
		halfSecs:  s.loadEnd.Sub(s.loadStart).Seconds() / 2,
		downtime:  s.downtime,
		applied:   s.in.applied.Load(),
		instances: s.in.instances.Load(),
	}
	for seq := int64(0); seq < s.ops.len(); seq++ {
		o := s.ops.at(seq)
		t.attempted++
		done := o.done.Load()
		if done == 0 || done-o.sent > int64(clientTO) {
			t.failed++
		}
		if done != 0 {
			t.committed++
			t.lat.record(done - o.intended)
		}
	}
	for i, d := range s.dets {
		if s.world.Alive(node.ID(i)) {
			t.leaderChanges += d.History().NumChanges() - 1 // the first output is not a change
			t.accusations += d.AccusationsSent()
		}
	}
	if s.p != nil {
		t.omegaLinks = len(s.p.omegaLinks)
	}
	if l := s.dets[simIngress].Leader(); l != node.None {
		t.retained = s.logs[l].Retained()
	}
	return t
}

func (s *simWorld) check() violations {
	recs := make([]*consensus.Recorder, simN)
	for i, l := range s.logs {
		recs[i] = l.Recorder()
	}
	crashed := map[node.ID]sim.Time{}
	if s.crashAt != 0 {
		crashed[0] = s.crashAt
	}
	return checkLogs(recs, crashed, simIngress, s.ops, s.pay)
}

// digest is the deterministic fingerprint of a tally: a repeat of the
// same seed must print the same bytes.
func (t *simTally) digest() string {
	return fmt.Sprintf("att=%d fail=%d ok=%d p50=%.0f p99=%.0f rsm=%d sends=%d events=%d omega=%d hb=%d lc=%d acc=%d down=%d",
		t.attempted, t.failed, t.committed, t.lat.quantile(0.5), t.lat.quantile(0.99),
		t.rsmMsgs, t.sends, t.events, t.omegaHalf, t.hbHalf, t.leaderChanges, t.accusations, t.downtime)
}

func (t *simTally) add(o *simTally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.committed += o.committed
	t.applied += o.applied
	t.instances += o.instances
	t.lat.merge(&o.lat)
	t.rsmMsgs += o.rsmMsgs
	t.sends += o.sends
	t.events += o.events
	t.omegaHalf += o.omegaHalf
	t.hbHalf += o.hbHalf
	t.halfSecs += o.halfSecs
	t.leaderChanges += o.leaderChanges
	t.accusations += o.accusations
	if o.omegaLinks > t.omegaLinks {
		t.omegaLinks = o.omegaLinks
	}
	if o.retained > t.retained {
		t.retained = o.retained
	}
}

// simRound is one timed repetition: one world for sim_steady, the whole
// seed sweep for sim_failover.
type simRound struct {
	tally     simTally
	digest    string
	setups    []float64 // s, per world
	downtimes []float64 // ms, per seed
	wall      time.Duration
	cpu       time.Duration
	allocs    uint64
	rss       float64          // MiB resident after the load, the worlds still referenced
	busy      [numLayers]int64 // ns inside Deliver+Tick, traced rounds
	stages    [3]float64       // ms
	v         violations
	err       error
}

func runSimRound(w workload, seed int64, seconds float64, traced bool, tmp string) simRound {
	var r simRound
	probesFor := func() *probes {
		if traced {
			return newProbes(simN)
		}
		return nil
	}
	if !w.Failover {
		s := bootSim(w, seed, probesFor())
		if r.err = s.err; r.err != nil {
			return r
		}
		end := s.world.Kernel.Now().Add(time.Duration(seconds * float64(time.Second)))
		c0, a0 := cpuTime(), heapAllocs()
		s.load(end, 0)
		r.cpu, r.allocs, r.wall = cpuTime()-c0, heapAllocs()-a0, s.loadWall
		r.rss = residentMB()
		r.tally = s.tally()
		r.digest = r.tally.digest()
		r.setups = []float64{s.setupWall.Seconds()}
		r.v = s.check()
		if traced {
			for l := range r.busy {
				r.busy[l] = s.p.layers[l].busyNS.Load()
			}
			r.stages[0], r.stages[1], r.stages[2], r.err = s.p.stages(tmp)
		}
		return r
	}

	// Failover: the seed is the base of a sweep. Loads run first, on all
	// cores, inside the timed span; the checks follow outside it.
	pool := sweep.New(runtime.GOMAXPROCS(0))
	t0, c0, a0 := time.Now(), cpuTime(), heapAllocs()
	worlds := sweep.Map(pool, failoverSeeds, func(i int) *simWorld {
		s := bootSim(w, seed+int64(i), probesFor())
		s.load(sim.At(failoverEnd), sim.At(failoverCrashAt))
		return s
	})
	r.wall, r.cpu, r.allocs = time.Since(t0), cpuTime()-c0, heapAllocs()-a0
	r.rss = residentMB()
	checks := sweep.Map(pool, failoverSeeds, func(i int) violations {
		if worlds[i].err != nil {
			return nil
		}
		return worlds[i].check()
	})
	for i, s := range worlds {
		if s.err != nil {
			r.err = s.err
			return r
		}
		t := s.tally()
		r.digest += t.digest() + "\n"
		r.tally.add(&t)
		r.setups = append(r.setups, s.setupWall.Seconds())
		r.downtimes = append(r.downtimes, ms(float64(t.downtime)))
		r.v = append(r.v, checks[i]...)
		if traced {
			for l := range r.busy {
				r.busy[l] += s.p.layers[l].busyNS.Load()
			}
		}
	}
	return r
}

// runSim measures one simulated workload. A seed fixes the whole
// execution, so the run repeats the same execution for as long as the
// measuring time lasts: counts come from the first repetition (and must
// be equal in all of them), wall-clock speeds are medians over them.
func runSim(w workload, seed int64, seconds float64, traced bool, tmp string) (*measurement, error) {
	m := newMeasurement()
	var plain, probed []simRound
	var setups []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; ; n++ {
		// The traced pass alternates untraced and traced repetitions.
		withProbes := traced && n%2 == 1
		r := runSimRound(w, seed, seconds, withProbes, tmp)
		if r.err != nil {
			return nil, r.err
		}
		setups = append(setups, r.setups...)
		if withProbes {
			probed = append(probed, r)
		} else {
			plain = append(plain, r)
			if r.digest != plain[0].digest {
				m.Violations = append(m.Violations, fmt.Sprintf("repetition %d of seed %d differs from the first: not deterministic", n, seed))
			}
		}
		m.Violations = append(m.Violations, r.v...)
		runtime.GC() // the finished worlds are garbage: keep them out of the next repetition's heap
		if !w.Failover {
			// The failover sweep boots forty worlds a repetition; here there
			// is one, so more are booted between repetitions. (At process
			// start, before the heap has been touched, the same boot takes
			// two to four times as long and says more about page faults.)
			for i := 0; i < simBoots; i++ {
				s := bootSim(w, seed, nil)
				if s.err != nil {
					return nil, s.err
				}
				setups = append(setups, s.setupWall.Seconds())
			}
		}
		if time.Now().After(deadline) && (!traced || len(probed) > 0) {
			break
		}
	}

	first := &plain[0].tally
	ops := float64(first.committed)
	over := func(rs []simRound, f func(*simRound) float64) float64 {
		vs := make([]float64, len(rs))
		for i := range rs {
			vs[i] = f(&rs[i])
		}
		return median(vs)
	}
	m.Attempted, m.Failed = first.attempted, first.failed
	m.Digest = plain[0].digest
	m.E2E["setup_s"] = median(setups)
	m.E2E["op_p50_ms"] = ms(first.lat.quantile(0.50))
	m.E2E["op_tail_ms"] = ms(first.lat.quantile(simTailQ))
	m.E2E["goodput_ops_per_s"] = over(plain, func(r *simRound) float64 { return ratio(ops, r.wall.Seconds()) })
	m.E2E["cpu_us_per_op"] = over(plain, func(r *simRound) float64 { return ratio(us(float64(r.cpu)), ops) })
	m.E2E["allocs_per_op"] = over(plain, func(r *simRound) float64 { return ratio(float64(r.allocs), ops) })
	m.E2E["rss_mb"] = over(plain, func(r *simRound) float64 { return r.rss })
	m.E2E["msgs_per_cmd"] = ratio(float64(first.rsmMsgs), ops)

	if !w.Failover && first.leaderChanges > 0 {
		m.unstable("core.leader_changes = %d in a steady simulated run", first.leaderChanges)
	}
	if !traced {
		return m, nil
	}

	L := m.Layer
	t := &probed[0].tally
	cpuPlain := m.E2E["cpu_us_per_op"]
	cpuTraced := over(probed, func(r *simRound) float64 { return ratio(us(float64(r.cpu)), ops) })
	busy := over(probed, func(r *simRound) float64 { return float64(r.busy[layerCore] + r.busy[layerRSM]) })
	rsmBusy := over(probed, func(r *simRound) float64 { return float64(r.busy[layerRSM]) })
	coreBusy := over(probed, func(r *simRound) float64 { return float64(r.busy[layerCore]) })
	simSecs := 2 * t.halfSecs
	L["bench.trace_overhead_pct"] = 100 * ratio(cpuTraced-cpuPlain, cpuPlain)
	L["bench.goodput_ops_per_s"] = m.E2E["goodput_ops_per_s"]
	L["bench.cpu_us_per_op"] = cpuPlain
	L["bench.traced_cpu_us_per_op"] = cpuTraced
	L["bench.unattributed_pct"] = 100 * (1 - ratio(ratio(us(busy), ops), cpuTraced))
	L["bench.fail_ratio"] = ratio(float64(t.failed), float64(t.attempted))
	L["bench.write_p50_ms"] = ms(t.lat.quantile(0.50))
	L["bench.write_p99_ms"] = ms(t.lat.quantile(0.99))
	L["bench.op_p99_ms"] = ms(t.lat.quantile(0.99))
	L["bench.peak_rss_mb"] = peakRSSMB()
	L["rsm.busy_us_per_cmd"] = ratio(us(rsmBusy), ops)
	L["rsm.cmds_per_instance"] = ratio(float64(t.applied), float64(t.instances))
	L["rsm.queue_ms"], L["rsm.quorum_ms"], L["rsm.apply_ms"] = probed[0].stages[0], probed[0].stages[1], probed[0].stages[2]
	L["rsm.retained_entries"] = float64(t.retained)
	L["core.busy_us_per_s"] = ratio(us(coreBusy), simSecs)
	L["core.hb_msgs_per_s"] = ratio(float64(t.hbHalf), t.halfSecs)
	L["core.omega_msgs_per_s"] = ratio(float64(t.omegaHalf), t.halfSecs)
	L["core.leader_changes"] = float64(t.leaderChanges)
	L["core.accusations"] = float64(t.accusations)
	L["core.active_links"] = float64(t.omegaLinks)
	if w.Failover {
		L["core.failover_downtime_ms"] = median(plain[0].downtimes)
		max := 0.0
		for _, d := range plain[0].downtimes {
			if d > max {
				max = d
			}
		}
		L["core.failover_downtime_max_ms"] = max
	} else if t.omegaLinks != simN-1 {
		m.Violations = append(m.Violations, fmt.Sprintf("core.active_links = %d in the last half of a steady run, the paper's bound is n-1 = %d", t.omegaLinks, simN-1))
	}
	L["sim.events_per_cmd"] = ratio(float64(first.events), ops)
	L["sim.ns_per_event"] = over(plain, func(r *simRound) float64 { return ratio(float64(r.cpu), float64(r.tally.events)) })
	L["network.sends_per_cmd"] = ratio(float64(first.sends), ops)
	L["node.busy_us_per_cmd"] = ratio(us(busy), ops)
	for _, d := range perLayer {
		if _, ok := L[d.Name]; !ok {
			L[d.Name] = 0 // a layer this workload does not run
		}
	}
	m.Budget = []budgetRow{
		{"rsm (incl. fabric sends)", ratio(us(rsmBusy), ops)},
		{"core (incl. fabric sends)", ratio(us(coreBusy), ops)},
		{"unattributed (kernel, client, GC)", cpuTraced - ratio(us(busy), ops)},
		{"traced cpu_us_per_op", cpuTraced},
		{"untraced cpu_us_per_op", cpuPlain},
	}
	return m, nil
}
