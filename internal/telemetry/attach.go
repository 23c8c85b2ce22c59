package telemetry

import (
	"time"

	"repro/internal/consensus"
	"repro/internal/detector"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Process is what one process offers the pipeline besides its messages.
// A nil field is skipped.
type Process struct {
	ID       node.ID
	History  *detector.History   // leader output: obs.LeaderChange events
	Recorder *consensus.Recorder // decisions: obs.Decide events
	Lease    LeaseProbe          // read path, polled by c
}

// Attach is the one assembly call: it subscribes sink (nil: none) — the
// observer the process's runtime was built with, which already gets its
// messages, crashes and rejoins — to p's hooks, one adapter each, and
// registers p's probe with c (nil: no collector). Every subscriber teed
// into sink sees every event whatever the order of Attach calls; call it
// before the process starts, and again for the fresh History and Recorder
// of a restarted one.
func Attach(sink obs.Sink, c *Collector, p Process) {
	if sink != nil {
		if id := int(p.ID); p.History != nil {
			p.History.AddNotify(func(t sim.Time, leader node.ID) {
				sink.OnEvent(obs.Event{T: t, What: obs.LeaderChange, Proc: id, Peer: int(leader)})
			})
		}
		if p.Recorder != nil {
			p.Recorder.AddNotify(func(d consensus.Decision) {
				sink.OnEvent(obs.Event{T: d.At, What: obs.Decide, Proc: int(d.By), Peer: -1, Dur: d.Elapsed})
			})
		}
	}
	if c != nil && p.Lease != nil {
		c.Probe(p.Lease)
	}
}

// FlushHook adapts sink to transport.Config.OnFlush: every vectored write
// becomes an obs.Flush event. Nil when sink is.
func FlushHook(sink obs.Sink) func(from, to node.ID, frames, bytes int) {
	if sink == nil {
		return nil
	}
	return func(from, to node.ID, frames, bytes int) {
		sink.OnEvent(obs.Event{What: obs.Flush, Proc: int(from), Peer: int(to), N: frames, Bytes: bytes})
	}
}

// WALHooks adapts sink to the three observer callbacks of process id's
// durable.Options — OnAppend, OnFsync, OnRecover, matched field for field
// so this package never imports durable; nil when sink is. The WAL has no
// clock; now stamps the fsyncs and recoveries (the cluster clock, or
// tracing.Set.Stamp).
func WALHooks(sink obs.Sink, id node.ID, now func() sim.Time) (onAppend func(int), onFsync, onRecover func(time.Duration)) {
	if sink == nil {
		return nil, nil, nil
	}
	emit := func(t sim.Time, what obs.What, d time.Duration, bytes int) {
		sink.OnEvent(obs.Event{T: t, What: what, Proc: int(id), Peer: -1, Dur: d, Bytes: bytes})
	}
	return func(bytes int) { emit(0, obs.WALAppend, 0, bytes) }, // nobody asks when
		func(d time.Duration) { emit(now(), obs.WALFsync, d, 0) },
		func(d time.Duration) { emit(now(), obs.WALRecover, d, 0) }
}
