package rsm

// This file is the turn layer: what the engine does once per turn of the
// node loop instead of once per message. A live runtime delivers whatever
// queued up while it was busy — a client's burst of REQs, a round of
// ACCEPTEDs, votes to cast — and then signals the end of the turn
// (node.TurnEnd), holding everything sent meanwhile until the signal
// returns. So the handlers only note what is due, and the end of the turn
// does it once: one pump, which puts the whole burst into one instance
// whose ACCEPT also carries the commit index of a quorum completed in the
// same turn; one answer to the waiting reads the applied index now covers
// (read.go); if no ACCEPT took the index along, one DECIDE to each replica
// whose commands the turn decided (pipeline.go, announceCommit); one write of
// every record the turn appended to the store, before any message that
// reveals them is released; and, at n = 3, where no DECIDE is owed, the
// decision of every vote the turn cast on its ballot owner's ACCEPT, now
// durable (decideRipe).
//
// Both runtimes signal (node.Proc; World's turns are of one event). What
// no turn encloses — a Submit or Read from outside the loop, a hand-driven
// test Env — has no send held back and no signal: it ends itself (settle),
// and a record is flushed the moment it is appended (persisted).

// endTurn does what the turn's events left due. The pump comes first: an
// ACCEPT that leaves now announces the commit index to everyone for free.
// Only a flushed vote decides.
func (r *Node) endTurn() {
	for r.pumpDue { // a one-process quorum decides inside pump and asks again
		r.pumpDue = false
		r.pump(false)
	}
	if len(r.reads.waiting) > 0 {
		r.serveReads()
	}
	if r.commitDue {
		r.commitDue = false
		r.announceCommit()
	}
	r.cfg.Store.Flush()
	r.decideRipe()
	r.reads.need = r.pipe.nextInst // the next turn's reads need this much
}

// settle closes an event that no turn of the runtime encloses.
func (r *Node) settle() {
	if !r.inTurn {
		r.endTurn()
	}
}

// persisted follows every record that must be durable before the message
// sent next can be seen. Inside a turn the runtime holds that message
// until endTurn has flushed; otherwise it is about to leave.
func (r *Node) persisted() {
	if !r.inTurn {
		r.cfg.Store.Flush()
	}
}
