package loop

import (
	"testing"
	"time"
)

// timerLoop is a Timers table on a real mailbox, drained by hand.
type timerLoop struct {
	m  *Mailbox[string]
	ts *Timers
}

func newTimerLoop() *timerLoop {
	l := &timerLoop{m: NewMailbox[string]()}
	l.ts = NewTimers(l.m.Push)
	return l
}

// next waits for one expiry event and runs it through Fired.
func (l *timerLoop) next(t *testing.T) (key string, owed bool) {
	t.Helper()
	for {
		if got := l.m.drain(nil, 1); len(got) == 1 {
			return got[0], l.ts.Fired(got[0])
		}
		select {
		case <-l.m.C:
		case <-time.After(2 * time.Second):
			t.Fatal("no expiry event within 2s")
		}
	}
}

// quiet fails if any owed firing shows up within d.
func (l *timerLoop) quiet(t *testing.T, d time.Duration) {
	t.Helper()
	deadline := time.After(d)
	for {
		for _, key := range l.m.drain(nil, 16) {
			if l.ts.Fired(key) {
				t.Fatalf("timer %q fired, want none", key)
			}
		}
		select {
		case <-l.m.C:
		case <-deadline:
			return
		}
	}
}

func TestTimersFireOncePerArming(t *testing.T) {
	l := newTimerLoop()
	for round := 0; round < 3; round++ { // one time.Timer, re-armed
		l.ts.Set("a", time.Millisecond)
		if key, owed := l.next(t); key != "a" || !owed {
			t.Fatalf("round %d: got %q owed=%v, want a firing of a", round, key, owed)
		}
	}
	l.quiet(t, 20*time.Millisecond)
	if n := len(l.ts.recs); n != 1 {
		t.Fatalf("%d timer records for one key", n)
	}
}

func TestTimersStopAndSupersede(t *testing.T) {
	l := newTimerLoop()
	l.ts.Set("stopped", 5*time.Millisecond)
	l.ts.Stop("stopped")
	l.ts.Stop("never-set")
	l.ts.Set("moved", 5*time.Millisecond)
	l.ts.Set("moved", 60*time.Millisecond) // supersedes the 5ms deadline
	start := time.Now()
	if key, owed := l.next(t); key != "moved" || !owed {
		t.Fatalf("got %q owed=%v, want the re-armed timer", key, owed)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("superseded deadline fired after %v", d)
	}
	l.quiet(t, 20*time.Millisecond)
}

// TestTimersExpiryUnderWay covers the case generations used to: the
// expiry has already started (its event is queued, or about to be) when
// the key is stopped, re-armed, or the process reboots. That event must be
// thrown away and the next arming must still fire, exactly once.
func TestTimersExpiryUnderWay(t *testing.T) {
	for name, disarm := range map[string]func(*Timers){
		"stop":    func(ts *Timers) { ts.Stop("k") },
		"stopall": func(ts *Timers) { ts.StopAll() },
		"rearm":   func(*Timers) {},
	} {
		l := newTimerLoop()
		l.ts.Set("k", time.Microsecond)
		<-l.m.C // the expiry event is in the mailbox, not yet dispatched
		disarm(l.ts)
		l.ts.Set("k", 30*time.Millisecond)
		start := time.Now()
		if _, owed := l.next(t); owed {
			t.Fatalf("%s: the expiry under way was delivered", name)
		}
		if _, owed := l.next(t); !owed {
			t.Fatalf("%s: the new arming did not fire", name)
		}
		if d := time.Since(start); d < 25*time.Millisecond {
			t.Fatalf("%s: new arming fired after %v, before its deadline", name, d)
		}
		l.quiet(t, 10*time.Millisecond)
	}
}

// TestTimersRearmStress re-arms and stops a few keys at random points
// around their deadlines; afterwards every key is armed once more and must
// fire exactly once — a miscounted stale expiry would eat that firing or
// add one.
func TestTimersRearmStress(t *testing.T) {
	l := newTimerLoop()
	keys := []string{"a", "b", "c"}
	for i := 0; i < 3000; i++ {
		key := keys[i%len(keys)]
		switch i % 7 {
		case 0:
			l.ts.Stop(key)
		case 1, 2:
			time.Sleep(time.Duration(i%5) * 10 * time.Microsecond)
			fallthrough
		default:
			l.ts.Set(key, time.Duration(i%4)*20*time.Microsecond)
		}
		for _, k := range l.m.drain(nil, 4) {
			l.ts.Fired(k)
		}
	}
	for _, key := range keys {
		l.ts.Stop(key)
	}
	l.quiet(t, 20*time.Millisecond)
	for _, key := range keys {
		l.ts.Set(key, time.Millisecond)
	}
	fired := map[string]int{}
	for len(fired) < len(keys) {
		if key, owed := l.next(t); owed {
			fired[key]++
		}
	}
	l.quiet(t, 20*time.Millisecond)
	for _, key := range keys {
		if fired[key] != 1 {
			t.Fatalf("timer %q fired %d times after the stress, want 1", key, fired[key])
		}
	}
}
