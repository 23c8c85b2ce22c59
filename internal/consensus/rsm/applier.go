package rsm

import (
	"repro/internal/consensus"
	"repro/internal/durable"
	"repro/internal/sim"
)

// This file is the applier layer: it walks the contiguous decided prefix
// in order, records each instance once — the Recorder cuts it into one
// Decision per command when read — runs the hooks per command, and releases
// the slots it passed. Latency is per command, enqueue-to-apply: the
// proposing leader remembers when each command entered its queue, and the
// Recorder hands its hooks the difference at apply time.

// applier tracks apply progress and decision fan-out. What the leader
// proposed in an instance, and when each command in it was enqueued,
// rides on the instance's flight (pipeline.go), which apply takes.
type applier struct {
	next    int // next instance to apply; always firstGap after apply()
	count   int // commands applied, noops included
	onApply func(inst, cmd int, v consensus.Value)
}

// apply runs the applier over every newly contiguous decided instance:
// record it, decode, run the hook and retire the matching pending command
// for each of its commands, and advance this replica's own done (observe).
func (r *Node) apply() {
	now := r.env.Now()
	for {
		s := r.log.at(r.app.next)
		if s == nil || !s.decided() {
			break
		}
		// Copy out of the slot: the hooks below may grow the window.
		inst, v, fl := r.app.next, s.v, r.pipe.unhang(r.app.next)
		r.app.next++
		tracked := fl != nil && fl.tracked
		if tracked && fl.v != v {
			// Our proposal lost this instance to a competing ballot: its
			// commands ride nowhere now, so hand them back to the queue.
			tracked = false
			r.bat.unassign()
		}
		var enq []sim.Time
		if tracked {
			enq = fl.enq
		}
		// Before the first hook: GetCmd(inst, k) answers inside it.
		r.rec.RecordInstance(inst, v, now, r.me, enq)
		eachCmd(v, func(k int, cmd consensus.Value) {
			if tracked && k < len(fl.reqs) && fl.reqs[k].Valid() {
				// Stage three, closing the trace: decide to apply. An
				// instance decided without our own quorum (learned via
				// DecideMsg) has no decidedAt; its apply span is a point.
				start := fl.decidedAt
				if start == 0 {
					start = now
				}
				r.cfg.Tracer.Record(start, now, fl.reqs[k], "apply", -1, "")
			}
			if r.app.onApply != nil {
				r.app.onApply(inst, k, cmd)
			}
			r.app.count++
			r.bat.retire(cmd)
		})
		if r.prop.prepared {
			r.owe(tracked, fl)
		}
		if fl != nil {
			r.pipe.release(fl)
		}
	}
	r.log.release(r.app.next) // recorded: the Recorder serves them from here
	r.observe(r.me, r.log.firstGap)
	if r.prop.prepared {
		r.log.forgetBelow(r.minDone())
	}
	r.maybeSnapshot()
}

// maybeSnapshot checkpoints the durable store once SnapshotEvery
// commands have been applied since the last checkpoint. The snapshot
// absorbs the contiguous applied prefix (below firstGap) into the App
// payload; entries at or above it — decided-but-unapplied islands and
// open acceptor votes — ride along explicitly. The in-memory horizon stays
// the Done column's: the snapshot moves only the durable one.
func (r *Node) maybeSnapshot() {
	if r.cfg.SnapshotEvery <= 0 || r.app.count-r.snapBase < r.cfg.SnapshotEvery {
		return
	}
	st := &durable.State{
		Promised:  uint64(r.acc.promised),
		Ballot:    uint64(r.prop.ballot),
		SnapIndex: uint64(r.log.firstGap),
		SnapCount: uint64(r.app.count),
	}
	if r.cfg.SnapshotState != nil {
		st.App = r.cfg.SnapshotState()
	}
	for inst := r.log.firstGap; inst < r.log.end(); inst++ {
		if s := r.log.at(inst); s.decided() {
			st.Decided = append(st.Decided, durable.DecidedRec{Inst: uint64(inst), V: string(s.v)})
		} else if s.b != consensus.NoBallot {
			st.Accepted = append(st.Accepted, durable.AcceptedRec{Inst: uint64(inst), B: uint64(s.b), V: string(s.v)})
		}
	}
	if err := r.cfg.Store.Snapshot(st); err != nil {
		// Nothing is lost on a failed checkpoint — the WAL keeps every
		// record — it just cannot compact yet. Retry at the next batch.
		r.env.Logf("rsm: snapshot at %d failed: %v", r.log.firstGap, err)
		return
	}
	r.snapBase = r.app.count
}
