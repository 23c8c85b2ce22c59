package transport

import (
	"time"

	"repro/internal/faultline"
	"repro/internal/node"
)

// scheduleCrashes arms one timer per entry in the injector's crash plan,
// calling crash from the timer goroutine (crash-stop is an atomic flag
// flip, safe from anywhere). The returned timers let Stop cancel pending
// crashes.
func scheduleCrashes(fault *faultline.Injector, crash func(node.ID)) []*time.Timer {
	if fault == nil {
		return nil
	}
	plan := fault.Crashes()
	timers := make([]*time.Timer, 0, len(plan))
	for _, cr := range plan {
		id := cr.ID
		timers = append(timers, time.AfterFunc(cr.After, func() { crash(id) }))
	}
	return timers
}

// scheduleRestarts arms the injector's crash-recovery plan: each entry
// crashes its process at After and reboots it Downtime later with an
// automaton from rebuild. The reboot timer is armed only after the crash
// has taken effect, so crash always precedes reboot even at zero
// Downtime; arm registers the late timer for Stop cancellation (a
// stopped cluster cancels it immediately, abandoning the reboot).
func scheduleRestarts(fault *faultline.Injector, rebuild func(node.ID) node.Automaton,
	crash func(node.ID), restart func(node.ID, node.Automaton), arm func(*time.Timer)) []*time.Timer {
	if fault == nil {
		return nil
	}
	plan := fault.Restarts()
	timers := make([]*time.Timer, 0, len(plan))
	for _, rs := range plan {
		id, down := rs.ID, rs.Downtime
		timers = append(timers, time.AfterFunc(rs.After, func() {
			crash(id)
			arm(time.AfterFunc(down, func() { restart(id, rebuild(id)) }))
		}))
	}
	return timers
}
