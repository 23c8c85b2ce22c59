package main

import (
	"fmt"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/durable"
	"repro/internal/node"
	"repro/internal/sim"
)

// This file is the correctness gate every workload passes through after
// its run: the replicas' applied sequences agree slot by slot, every
// acknowledged write is in the ingress's sequence with the bytes the
// client sent, every read's Index covers the writes acknowledged before
// it was issued, and (tcp_wal) a quorum of reopened WALs holds every
// acknowledged command.

const maxReported = 5

type violations []string

func (v *violations) add(format string, args ...any) {
	if len(*v) < maxReported {
		*v = append(*v, fmt.Sprintf(format, args...))
	}
}

// checkLogs is the part shared by live and simulated runs.
func checkLogs(recs []*consensus.Recorder, crashed map[node.ID]sim.Time, ingress node.ID, ops *opLog, pay *payload) violations {
	var v violations
	if rep := consensus.CheckSafety(consensus.SafetyInput{Recorders: recs, Crashed: crashed}); !rep.Agreement {
		for _, s := range rep.Violations {
			v.add("safety: %s", s)
		}
	}
	seen := make(map[int64]int)
	for _, d := range recs[ingress].All() {
		seq, ok := commandSeq(d.Value)
		if !ok {
			continue
		}
		o := ops.at(seq)
		if o == nil || o.read {
			v.add("applied command %q was never sent", d.Value)
			continue
		}
		if d.Value != pay.command(seq) {
			v.add("command %d was applied with bytes the client did not send", seq)
		}
		seen[seq]++
	}
	for seq := int64(0); seq < ops.len(); seq++ {
		o := ops.at(seq)
		if o.done.Load() == 0 {
			continue
		}
		if o.read {
			if o.gotIdx < o.needIdx {
				v.add("read %d answered at index %d, before write position %d acknowledged earlier", seq, o.gotIdx, o.needIdx)
			}
		} else if seen[seq] == 0 {
			v.add("acknowledged write %d is missing from the ingress log", seq)
		}
	}
	return v
}

// checkLive runs the gate on a stopped live cluster and returns how long
// one WAL took to reopen (0 without WALs).
func checkLive(cl *liveCluster, g *generator) (violations, time.Duration) {
	recs := make([]*consensus.Recorder, len(cl.logs))
	for i, l := range cl.logs {
		recs[i] = l.Recorder()
	}
	v := checkLogs(recs, nil, ingressID, g.ops, g.pay)
	if len(cl.dirs) == 0 {
		return v, 0
	}
	var recovery time.Duration
	holds := make(map[int64]int)
	for i, dir := range cl.dirs {
		t0 := time.Now()
		wal, err := durable.Open(dir, durable.Options{Sync: durable.SyncOff})
		if err != nil {
			v.add("wal p%d does not reopen: %v", i, err)
			continue
		}
		recovery += time.Since(t0)
		if st := wal.State(); st != nil {
			inWAL := make(map[int64]bool)
			for _, d := range st.Decided {
				for _, cmd := range rsm.DecodeBatch(consensus.Value(d.V)) {
					if seq, ok := commandSeq(cmd); ok {
						inWAL[seq] = true
					}
				}
			}
			for seq := range inWAL {
				holds[seq]++
			}
		}
		if err := wal.Close(); err != nil {
			v.add("wal p%d close: %v", i, err)
		}
	}
	for seq := int64(0); seq < g.ops.len(); seq++ {
		if o := g.ops.at(seq); !o.read && o.done.Load() != 0 && holds[seq] < consensus.Majority(liveN) {
			v.add("acknowledged write %d recovered from %d of %d WALs", seq, holds[seq], liveN)
		}
	}
	return v, recovery / time.Duration(len(cl.dirs))
}
