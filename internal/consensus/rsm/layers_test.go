package rsm

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/network"
	"repro/internal/node"
)

// newTunedCluster is newCluster with an explicit engine config.
func newTunedCluster(t *testing.T, n int, seed int64, cfg Config) *cluster {
	t.Helper()
	w, err := node.NewWorld(node.WorldConfig{N: n, Seed: seed, DefaultLink: network.Timely(2 * ms)})
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{world: w, dets: make([]*core.Detector, n), nodes: make([]*Node, n)}
	for i := 0; i < n; i++ {
		c.dets[i] = core.New(core.WithEta(10 * ms))
		c.nodes[i] = New(c.dets[i], cfg)
		w.SetAutomaton(node.ID(i), node.Compose(c.dets[i], c.nodes[i]))
	}
	return c
}

func TestBatchCodecRoundTrip(t *testing.T) {
	cases := [][]consensus.Value{
		{"single"},
		{"a", "b", "c"},
		{"", "x", ""}, // empty commands survive
		{"\x00bstartswithmarker"},
		{"binary\x00\xffstuff", consensus.Value(make([]byte, 300))},
	}
	for _, cmds := range cases {
		env := encodeBatch(new(node.Arena), cmds)
		got := DecodeBatch(env)
		if len(got) != len(cmds) {
			t.Fatalf("round-trip of %q: %d commands, want %d", cmds, len(got), len(cmds))
		}
		for i := range cmds {
			if got[i] != cmds[i] {
				t.Fatalf("round-trip of %q: cmd %d = %q", cmds, i, got[i])
			}
		}
	}
	// The unbatched fast path: a lone marker-free command is proposed raw.
	if env := encodeBatch(new(node.Arena), []consensus.Value{"plain"}); env != "plain" {
		t.Fatalf("single command encoded as %q, want raw", env)
	}
	// A marker-prefixed command must NOT pass through raw.
	if env := encodeBatch(new(node.Arena), []consensus.Value{"\x00boops"}); env == "\x00boops" {
		t.Fatal("marker-prefixed command leaked through unwrapped")
	}
	// Arbitrary non-envelope values decode as one command.
	if got := DecodeBatch("legacy"); len(got) != 1 || got[0] != "legacy" {
		t.Fatalf("raw value decoded as %v", got)
	}
}

func TestLogbookForgetBelow(t *testing.T) {
	l := logbook{highestDecided: -1}
	for i := 0; i < 10; i++ {
		l.insert(i, consensus.Value(fmt.Sprintf("v%d", i)))
	}
	l.forgetBelow(5)
	if l.decided != 5 {
		t.Fatalf("retained = %d, want 5", l.decided)
	}
	if _, ok := l.get(3); ok {
		t.Fatal("forgotten entry still readable")
	}
	if v, ok := l.get(7); !ok || v != "v7" {
		t.Fatal("retained entry lost")
	}
	if l.insert(3, "zombie") {
		t.Fatal("re-insert below the forgetting horizon accepted")
	}
	if l.firstGap != 10 {
		t.Fatalf("firstGap = %d after forgetting, want 10", l.firstGap)
	}
	// The horizon never regresses, and never passes the applied prefix.
	l.forgetBelow(2)
	if l.low != 5 {
		t.Fatalf("low regressed to %d", l.low)
	}
	l.forgetBelow(99)
	if l.low != 10 || l.decided != 0 {
		t.Fatalf("low = %d retained = %d, want horizon capped at firstGap", l.low, l.decided)
	}
}

func TestDoneVectorMin(t *testing.T) {
	d := &Node{peers: make([]follower, 3)}
	if d.minDone() != 0 {
		t.Fatalf("fresh min = %d", d.minDone())
	}
	d.observe(0, 7)
	d.observe(1, 5)
	if d.minDone() != 0 {
		t.Fatal("min advanced without hearing from p2")
	}
	d.observe(2, 6)
	if d.minDone() != 5 {
		t.Fatalf("min = %d, want 5", d.minDone())
	}
	d.observe(1, 3) // stale advertisement must not regress
	if d.minDone() != 5 {
		t.Fatalf("min regressed to %d", d.minDone())
	}
	d.observe(node.None, 9) // a sender outside [0, n) is nobody
	if d.minDone() != 5 {
		t.Fatalf("min = %d after an advertisement from nobody", d.minDone())
	}
}

// TestDoneOutlivesAnAbdication: how far a process has applied is a fact
// about the process, whoever leads, so a leader that abdicates keeps it.
// Leader p0 of three decides 0–3 on both followers' votes, then proposes 4
// and 5; only p2's vote in 5 comes back, sent after p2 had decided 4 on its
// own vote, so p2 is known to have applied through 5 while p0 is stuck at 4.
// p0 abdicates — on a NACK, or on a higher PREPARE — and is elected again
// on p1's promise, which reports p1's decided prefix, 5, and so sets p0's
// floor. p0 learns 4 by value from p1 below that floor and must not pass it
// on to p2, whose Done covers it (passOn); the first ACCEPT of the new
// ballot must carry a MinDone no lower than the last one of the old.
func TestDoneOutlivesAnAbdication(t *testing.T) {
	for _, how := range []string{"NACK", "PREPARE"} {
		r, env := prepareLeaderCfg(t, nil, Config{BatchMax: 1})
		propose := func(v consensus.Value) AcceptMsg {
			t.Helper()
			r.Submit(v)
			for _, s := range env.drain() {
				if a, ok := s.msg.(*AcceptMsg); ok && a.V == v {
					return *a
				}
			}
			t.Fatalf("%s: no ACCEPT of %q", how, v)
			return AcceptMsg{}
		}
		for i, v := range []consensus.Value{"a", "b", "c", "d"} {
			a := propose(v)
			r.Deliver(1, &AcceptedMsg{B: a.B, Inst: a.Inst, Done: i})
			r.Deliver(2, &AcceptedMsg{B: a.B, Inst: a.Inst, Done: i})
		}
		propose("e")
		before := propose("f")
		r.Deliver(2, &AcceptedMsg{B: before.B, Inst: before.Inst, Done: 5})
		if r.FirstGap() != 4 || r.HighestDecided() != 5 || r.minDone() != before.MinDone || before.MinDone != 3 {
			t.Fatalf("%s: setup: first gap %d, highest decided %d, MinDone %d on the last ACCEPT, %d now",
				how, r.FirstGap(), r.HighestDecided(), before.MinDone, r.minDone())
		}

		if how == "NACK" {
			r.Deliver(1, NackMsg{B: before.B, Promised: before.B + 50})
		} else {
			r.Deliver(2, PrepareMsg{B: before.B + 50})
		}
		if r.prop.prepared {
			t.Fatalf("%s: p0 did not abdicate", how)
		}
		env.now = env.now.Add(time.Hour)
		r.Tick(timerDrive)
		r.Deliver(1, PromiseMsg{B: r.prop.ballot, Entries: []PromEntry{{Inst: 5}}})
		if !r.prop.prepared || r.prop.floor != 5 {
			t.Fatalf("%s: p0 re-elected %v, floor %d; want prepared at floor 5", how, r.prop.prepared, r.prop.floor)
		}
		env.drain()
		r.Deliver(1, &DecideMsg{Inst: 4, V: "e"}) // p1 answers p0's LEARN
		for _, s := range env.drain() {
			if d, ok := s.msg.(*DecideMsg); ok && s.to == 2 && d.B == consensus.NoBallot {
				t.Errorf("%s: p0 passed instance %d on to p2, which has applied through 5", how, d.Inst)
			}
		}
		if after := propose("g"); after.MinDone < before.MinDone {
			t.Errorf("%s: the first ACCEPT of the new ballot carries MinDone %d, the last of the old %d", how, after.MinDone, before.MinDone)
		}
	}
}

func TestLeaderChangeMidPipelineConvergesWithoutReordering(t *testing.T) {
	// Load the pipeline (small window, small batches → many concurrent
	// instances), crash the leader mid-flight, and require the survivors
	// to re-propose in-flight instances, close the rest with no-ops, and
	// apply one identical command sequence.
	c := newTunedCluster(t, 5, 31, Config{Window: 4, BatchMax: 4})
	c.world.Start()
	c.world.RunFor(300 * ms)
	for i := 0; i < 24; i++ {
		c.nodes[0].Submit(consensus.Value(fmt.Sprintf("c%d", i)))
	}
	c.world.RunFor(21 * ms) // several windowed instances in flight
	c.world.Crash(0)
	c.nodes[1].Submit("after")
	c.world.RunFor(5 * time.Second)
	c.assertPrefixAgreement(t) // no holes below any survivor's gap, either
	if rep := c.safety(); !rep.Holds() {
		t.Fatalf("safety: %v", rep.Violations)
	}
	for i := 1; i < 5; i++ {
		if !c.appliedSet(i)["after"] {
			t.Fatalf("p%d never applied the post-crash command", i)
		}
	}
	// No reordering: survivors applied the same (instance, cmd, value)
	// sequence — Recorder order is apply order.
	ref := c.nodes[1].Recorder().All()
	for i := 2; i < 5; i++ {
		got := c.nodes[i].Recorder().All()
		n := len(ref)
		if len(got) < n {
			n = len(got)
		}
		for k := 0; k < n; k++ {
			if got[k].Instance != ref[k].Instance || got[k].Cmd != ref[k].Cmd || got[k].Value != ref[k].Value {
				t.Fatalf("apply order diverged at %d: p%d applied (%d,%d,%q), p1 applied (%d,%d,%q)",
					k, i, got[k].Instance, got[k].Cmd, got[k].Value, ref[k].Instance, ref[k].Cmd, ref[k].Value)
			}
		}
	}
}

func TestForgettingBoundsRetainedLog(t *testing.T) {
	c := newTunedCluster(t, 3, 32, Config{})
	c.world.Start()
	c.world.RunFor(300 * ms)
	// Sustained load in waves: each wave's accepts carry the followers'
	// applied-through counts forward, so earlier waves get pruned while
	// later ones stream in.
	const waves, perWave = 10, 60
	for w := 0; w < waves; w++ {
		for i := 0; i < perWave; i++ {
			c.nodes[0].Submit(consensus.Value(fmt.Sprintf("w%d-c%d", w, i)))
		}
		c.world.RunFor(300 * ms)
	}
	c.world.RunFor(time.Second)
	for i, s := range c.nodes {
		if got := s.Applied(); got < waves*perWave {
			t.Fatalf("p%d applied %d commands, want ≥ %d", i, got, waves*perWave)
		}
		if s.MinDone() == 0 {
			t.Fatalf("p%d never advanced its forgetting horizon", i)
		}
		// Bounded memory: far fewer entries retained than were decided.
		if gap := s.FirstGap(); s.Retained() > gap/2 {
			t.Fatalf("p%d retains %d of %d decided instances — forgetting is not pruning", i, s.Retained(), gap)
		}
	}
	// The log has forgotten its prefix; the recorders keep every applied
	// decision, and agreement is checked on them.
	c.assertPrefixAgreement(t)
	if rep := c.safety(); !rep.Holds() {
		t.Fatalf("safety: %v", rep.Violations)
	}
}

// TestHeldDownReplicaPinsTheHorizon is the one schedule in which forgetting
// could strand a replica: five under load, a command a millisecond at p2,
// and follower p4 cut off while 600 instances are decided without it.
// Nobody may forget what p4 has not applied, so every log grows; after the
// heal p4 catches up by LEARN, the horizon passes where p4 pinned it, and
// the logs shrink back.
func TestHeldDownReplicaPinsTheHorizon(t *testing.T) {
	const n, down, cut, bound = 5, 4, 600, 64
	w, err := node.NewWorld(node.WorldConfig{N: n, Seed: 11, DefaultLink: network.Timely(ms)})
	if err != nil {
		t.Fatal(err)
	}
	oracle := &fakeOmega{leader: 0}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = New(oracle, Config{BatchMax: 1, Window: 8, DriveInterval: 5 * ms})
		w.SetAutomaton(node.ID(i), nodes[i])
	}
	retained := func() (most int) {
		for _, r := range nodes {
			most = max(most, r.Retained())
		}
		return most
	}
	w.Start()
	seq, stop := 0, false
	var submit func()
	submit = func() {
		if !stop {
			nodes[2].Submit(consensus.Value(fmt.Sprintf("cmd-%d", seq)))
			seq++
			w.Kernel.Schedule(ms, submit)
		}
	}
	w.RunFor(20 * ms)
	submit()
	w.RunFor(200 * ms)
	if got := retained(); got > bound || nodes[0].MinDone() == 0 {
		t.Fatalf("before the cut: a log retains %d instances, horizon %d", got, nodes[0].MinDone())
	}

	w.Fabric.Isolate(down)
	pinned, from := nodes[down].FirstGap(), nodes[0].FirstGap()
	for nodes[0].FirstGap() < from+cut {
		w.RunFor(ms)
		for i, r := range nodes {
			if r.MinDone() > pinned {
				t.Fatalf("p%d forgot below %d while p4, cut off, had applied only %d", i, r.MinDone(), pinned)
			}
		}
		if s := stranded(w, nodes); s != "" {
			t.Fatal(s)
		}
	}
	for i, r := range nodes[:down] {
		if r.Retained() < cut {
			t.Fatalf("p%d retains %d instances after %d decided without p4, want them all", i, r.Retained(), cut)
		}
		// What a survivor's window costs per instance it must keep, besides
		// the value: a 24-byte slot and the array's growth slack, 27.3 bytes
		// here.
		per := float64(uintptr(cap(r.log.slots))*unsafe.Sizeof(slot{})+uintptr(cap(r.pipe.flights))*unsafe.Sizeof(&flight{})) / float64(r.Retained())
		if per > 36 {
			t.Fatalf("p%d keeps %.1f bytes of window per pinned instance, want at most 36", i, per)
		}
	}

	w.Fabric.Rejoin(down)
	learns := w.Stats.KindCount(KindLearn)
	healed := w.Kernel.Now()
	w.RunUntil(healed.Add(time.Second), func() bool {
		return stranded(w, nodes) != "" || nodes[down].FirstGap() >= nodes[0].FirstGap()-8
	})
	if s := stranded(w, nodes); s != "" {
		t.Fatal(s)
	}
	if nodes[down].FirstGap() < from+cut {
		t.Fatalf("p4 at %d a second after the heal, the leader at %d", nodes[down].FirstGap(), nodes[0].FirstGap())
	}
	if asked := w.Stats.KindCount(KindLearn) - learns; asked < cut/learnBatch {
		t.Fatalf("p4 caught up with %d LEARNs, want one per %d of the %d instances it missed", asked, learnBatch, cut)
	}
	t.Logf("p4 caught up %d instances in %v", nodes[down].FirstGap()-pinned, w.Kernel.Now().Sub(healed))
	w.RunFor(100 * ms)
	stop = true
	w.RunFor(100 * ms)
	for i, r := range nodes {
		if r.MinDone() <= pinned || r.Retained() > bound {
			t.Fatalf("p%d after the catch-up: horizon %d (pinned at %d), retains %d, want ≤ %d", i, r.MinDone(), pinned, r.Retained(), bound)
		}
	}
	recs := make([]*consensus.Recorder, n)
	for i, r := range nodes {
		recs[i] = r.Recorder()
	}
	if rep := consensus.CheckSafety(consensus.SafetyInput{Recorders: recs}); !rep.Holds() {
		t.Fatalf("safety: %v", rep.Violations)
	}
}

// TestForgettingAllocatesNothing: a follower fed 100,000 ACCEPTs that carry
// the horizon allocates no more than one fed the same without it, and its
// window stays a handful of slots in one array. Forgetting by reslicing
// the window off the front of its array fails both: the array's capacity
// runs out behind the slice, and every append past it allocates anew.
func TestForgettingAllocatesNothing(t *testing.T) {
	const accepts = 100000
	b := consensus.MakeBallot(0, 1, 5) // one follower of five: the commit index alone decides
	run := func(forget bool) (mallocs uint64, slots int) {
		r := New(consensus.StaticLeader(1), Config{})
		env := newFakeEnv(2, 5)
		env.mute = true
		r.Start(env)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < accepts; i++ {
			m := AcceptMsg{B: b, Inst: i, V: "x", CommitUpTo: i}
			if forget {
				m.MinDone = i
			}
			r.onAccept(1, m)
		}
		runtime.ReadMemStats(&after)
		if r.Applied() != accepts-1 {
			t.Fatalf("applied %d of %d", r.Applied(), accepts-1)
		}
		return after.Mallocs - before.Mallocs, cap(r.log.slots)
	}
	kept, grown := run(false)
	forgot, slots := run(true)
	t.Logf("mallocs %d keeping the log (%d slots), %d forgetting it (%d)", kept, grown, forgot, slots)
	if forgot > kept+16 || slots > 8 {
		t.Fatalf("forgetting: %d mallocs against %d, a window of capacity %d", forgot, kept, slots)
	}
}

// TestForgettingBehindALaggardIsLinear: a replica back from a long outage
// catches up a few instances at a time, and the horizon follows it across
// a window as long as the outage. Forgetting must cost in proportion to
// what it forgets, not to what the window still holds: sliding the window
// on every forget copies it once a step, w²/2 slots here, where filling it
// costs w (DESIGN.md §12 has the catch-up this makes quadratic).
func TestForgettingBehindALaggardIsLinear(t *testing.T) {
	const w = 1 << 15
	fill := func() *logbook {
		l := &logbook{highestDecided: -1}
		for i := 0; i < w; i++ {
			l.insert(i, "v")
		}
		return l
	}
	timed := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
	filled := min(timed(func() { fill() }), timed(func() { fill() }), timed(func() { fill() }))
	var forgot time.Duration
	for try := 0; try < 3; try++ {
		l := fill()
		if forgot = timed(func() {
			for i := 1; i <= w; i++ {
				l.forgetBelow(i)
			}
		}); forgot <= 10*filled+time.Millisecond {
			return
		}
	}
	t.Fatalf("forgetting %d instances one at a time took %v, filling them %v", w, forgot, filled)
}

func TestPerCommandElapsedIsEnqueueToApply(t *testing.T) {
	// Three commands, staggered 5ms apart, riding in at most two
	// instances: each must get its own enqueue-to-apply latency at the
	// leader — earlier enqueue, strictly larger Elapsed when they share a
	// batch.
	c := newTunedCluster(t, 3, 34, Config{Window: 1, BatchMax: 8})
	c.world.Start()
	c.world.RunFor(500 * ms)
	if !c.nodes[0].IsLeader() {
		t.Skip("p0 not leader under this seed")
	}
	c.nodes[0].Submit("first") // proposed immediately (pipeline idle)
	c.world.RunFor(5 * ms)
	c.nodes[0].Submit("second") // queued: window of 1 is busy
	c.world.RunFor(5 * ms)
	c.nodes[0].Submit("third") // queued behind second
	c.world.RunFor(2 * time.Second)
	byValue := make(map[consensus.Value]consensus.Decision)
	for _, d := range c.nodes[0].Recorder().All() {
		byValue[d.Value] = d
	}
	for _, v := range []consensus.Value{"first", "second", "third"} {
		d, ok := byValue[v]
		if !ok {
			t.Fatalf("%q never applied at the leader", v)
		}
		if d.Elapsed <= 0 {
			t.Fatalf("%q applied with Elapsed = %v, want > 0 at the proposing leader", v, d.Elapsed)
		}
	}
	// second and third shared a batch (window 1 held them back) yet their
	// latencies differ by their enqueue stagger.
	ds, dt := byValue["second"], byValue["third"]
	if ds.Instance == dt.Instance && ds.Elapsed <= dt.Elapsed {
		t.Fatalf("batched commands share latency: second %v ≤ third %v", ds.Elapsed, dt.Elapsed)
	}
	// Followers do not know proposer-side latency.
	for _, d := range c.nodes[1].Recorder().All() {
		if d.Elapsed != 0 {
			t.Fatalf("follower decision %q has Elapsed %v, want 0", d.Value, d.Elapsed)
		}
	}
}

func TestSnapshotRestartIgnoresAcceptsBelowIndex(t *testing.T) {
	// Snapshot/forgetting interaction: a node that checkpointed at index
	// k and restarted has absorbed everything below k. Stale phase-2
	// traffic for those instances — a laggard leader's retransmissions —
	// must neither re-grow logbook.retained() nor re-apply commands.
	const k = 5
	dir := t.TempDir()
	w, err := durable.Open(dir, durable.Options{Sync: durable.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	r := New(consensus.StaticLeader(1), Config{Store: w, SnapshotEvery: 1})
	env := newFakeEnv(2, 3)
	r.Start(env)
	for i := 0; i < k; i++ {
		r.learn(i, consensus.Value(fmt.Sprintf("c%d", i)))
	}
	w.Close()

	w2, err := durable.Open(dir, durable.Options{Sync: durable.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	r2 := New(consensus.StaticLeader(1), Config{Store: w2, SnapshotEvery: 1})
	env2 := newFakeEnv(2, 3)
	r2.Start(env2)
	env2.drain()
	if r2.MinDone() != k {
		t.Fatalf("restored forgetting horizon = %d, want %d", r2.MinDone(), k)
	}
	if r2.Retained() != 0 {
		t.Fatalf("restored log retains %d absorbed entries, want 0", r2.Retained())
	}
	baseApplied := r2.Applied()

	// Stale ACCEPT below the snapshot index: silently dropped.
	r2.Deliver(1, &AcceptMsg{B: consensus.MakeBallot(9, 1, 3), Inst: 2, V: "zombie"})
	if out := env2.drain(); len(out) != 0 {
		t.Fatalf("stale accept answered: %v", out)
	}
	// Stale DECIDE below the snapshot index: same.
	r2.Deliver(1, &DecideMsg{Inst: 3, V: "zombie"})
	if got := r2.Retained(); got != 0 {
		t.Fatalf("retained grew to %d on stale traffic below k", got)
	}
	if got := r2.Applied(); got != baseApplied {
		t.Fatalf("stale traffic re-applied commands: %d → %d", baseApplied, got)
	}
	if r2.log.voted != 0 {
		t.Fatalf("stale accept recorded %d votes", r2.log.voted)
	}

	// Fresh traffic at/above the snapshot index still flows normally.
	r2.Deliver(1, &AcceptMsg{B: consensus.MakeBallot(9, 1, 3), Inst: k, V: "new"})
	out := env2.drain()
	if len(out) != 1 {
		t.Fatalf("live accept got %d replies, want ACCEPTED", len(out))
	}
	if _, ok := out[0].msg.(*AcceptedMsg); !ok {
		t.Fatalf("reply = %+v, want AcceptedMsg", out[0].msg)
	}
}
