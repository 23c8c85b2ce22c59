package experiments

import (
	"fmt"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/scenario"
)

// readKinds is every message kind the read path can generate on top of
// the write-path rsmKinds: the read request/reply hops plus the lease
// maintenance traffic. E14 charges reads with all of it — the
// zero-message claim has to survive its own bookkeeping.
var readKinds = []string{
	rsm.KindLeaseGrant, rsm.KindLeaseAck, rsm.KindReadReq, rsm.KindReadReply,
}

// E14LeaseReads measures the read path with and without the leader
// lease. With a lease, a read at the leader is answered from the applied
// prefix — zero messages, zero log instances; a follower read costs one
// forward and one reply. Without a lease every read waits for a round: a
// grant broadcast after it arrived and acked by a majority, shared by all
// the reads waiting for it. The per-read cost collapses only as far as
// that sharing allows, and no read consumes a log instance.
func E14LeaseReads(o Opts) Table {
	o.fill()
	const n = 5
	reads := 100
	if o.Quick {
		reads = 40
	}
	t := Table{
		ID:    "E14",
		Title: "leader-lease local reads vs reads confirmed by a round of grants",
		Note: fmt.Sprintf("n=%d, %d reads in bursts of 10 every 30ms after a settled write; msgs/read counts read+lease traffic; instances = log slots consumed by the read series",
			n, reads),
		Columns: []string{"variant", "origin", "msgs/read", "instances", "local", "fallback"},
	}
	type cell struct {
		lease  time.Duration
		origin int // node issuing the reads: 0 = leader, 1 = follower
	}
	cells := []cell{
		{lease: 500 * time.Millisecond, origin: 0},
		{lease: 500 * time.Millisecond, origin: 1},
		{lease: 0, origin: 0},
		{lease: 0, origin: 1},
	}
	type run struct {
		perRead         float64
		instances       int
		local, fallback uint64
	}
	res := sweepEach(o, cells, func(c cell) run {
		perRead, instances, local, fallback := leaseReadRun(n, reads, c.lease, c.origin)
		return run{perRead: perRead, instances: instances, local: local, fallback: fallback}
	})
	for ci, c := range cells {
		variant := "lease"
		if c.lease == 0 {
			variant = "round"
		}
		origin := "leader"
		if c.origin != 0 {
			origin = "follower"
		}
		t.Rows = append(t.Rows, []string{
			variant, origin,
			fmt.Sprintf("%.2f", res[ci].perRead),
			fmt.Sprintf("%d", res[ci].instances),
			fmt.Sprintf("%d", res[ci].local),
			fmt.Sprintf("%d", res[ci].fallback),
		})
	}
	return t
}

// leaseReadRun executes one E14 cell and returns the read-series message
// cost, the log instances the series consumed, and the local/fallback
// split at the leader.
func leaseReadRun(n, reads int, lease time.Duration, origin int) (perRead float64, instances int, local, fallback uint64) {
	s := build(scenario.Config{N: n, Seed: 41, Eta: Eta, Consensus: scenario.ConsensusRSM, RSM: rsm.Config{Lease: lease}})
	w, logs := s.World, s.Logs
	answered := 0
	logs[origin].OnReadReply(func(m rsm.ReadReplyMsg) { answered += int(m.Count) })
	w.Start()
	w.RunFor(500 * time.Millisecond)
	logs[0].Submit(consensus.Value("seed-write"))
	w.RunFor(500 * time.Millisecond)

	msgsBefore := kindTotal(w, rsmKinds) + kindTotal(w, readKinds)
	gapBefore := logs[0].FirstGap()
	seq := uint64(1)
	for issued := 0; issued < reads; {
		burst := 10
		if burst > reads-issued {
			burst = reads - issued
		}
		for i := 0; i < burst; i++ {
			logs[origin].Read(seq, 1)
			seq++
		}
		issued += burst
		w.RunFor(30 * time.Millisecond)
	}
	w.RunFor(time.Second)
	if answered != reads {
		panic(fmt.Sprintf("E14: %d of %d reads answered (lease=%v origin=%d)", answered, reads, lease, origin))
	}
	msgs := kindTotal(w, rsmKinds) + kindTotal(w, readKinds) - msgsBefore
	return float64(msgs) / float64(reads), logs[0].FirstGap() - gapBefore,
		logs[0].LocalReads(), logs[0].FallbackReads()
}
