package loop

import "time"

// Timers is a node loop's table of named one-shot timers on the wall
// clock, the live runtime's node.Timers. A key keeps one time.Timer for
// life and re-arms it with Reset, so the heartbeat and drive ticks that
// every replica re-arms every few milliseconds allocate nothing. Every
// method runs on the loop goroutine; an expiry calls push from a timer
// goroutine, and the loop asks Fired whether the automaton is owed it.
type Timers struct {
	push func(key string) // enqueues an expiry event on the loop's mailbox
	recs map[string]*timerRec
}

// timerRec is one key's state. An expiry cannot be recalled once its
// function has started, so it is counted instead: armed says the
// automaton is owed a firing, stale how many expiries were already under
// way when the key was re-armed or stopped and must be thrown away.
type timerRec struct {
	t     *time.Timer
	armed bool
	stale int
}

// NewTimers returns an empty table whose expiries call push.
func NewTimers(push func(key string)) *Timers {
	return &Timers{push: push, recs: make(map[string]*timerRec)}
}

// Set (re)arms key to fire after d; an earlier deadline is superseded.
func (ts *Timers) Set(key string, d time.Duration) {
	r := ts.recs[key]
	if r == nil {
		r = &timerRec{armed: true}
		ts.recs[key] = r
		r.t = time.AfterFunc(d, func() { ts.push(key) })
		return
	}
	r.disarm()
	r.armed = true
	r.t.Reset(d)
}

// disarm cancels the firing owed, if any. A timer that is armed and will
// not stop has started its expiry and the event has not been through
// Fired yet (that is what clears armed): exactly one is on its way.
func (r *timerRec) disarm() {
	if r.armed && !r.t.Stop() {
		r.stale++
	}
	r.armed = false
}

// Stop disarms key if armed.
func (ts *Timers) Stop(key string) {
	if r := ts.recs[key]; r != nil {
		r.disarm()
	}
}

// StopAll disarms every key: the process rebooted and its timers died
// with the previous incarnation.
func (ts *Timers) StopAll() {
	for _, r := range ts.recs {
		r.disarm()
	}
}

// Fired takes one expiry event of key off the books and reports whether
// it is the firing the automaton is owed — not one superseded or stopped
// since. The loop must call it for every expiry event it dequeues, even
// one it then drops (a crashed process), or the count goes wrong.
func (ts *Timers) Fired(key string) bool {
	r := ts.recs[key]
	if r == nil {
		return false
	}
	if r.stale > 0 {
		r.stale--
		return false
	}
	owed := r.armed
	r.armed = false
	return owed
}
