// Package faultline injects deterministic, seeded faults into the live
// transports (internal/transport): per-directed-link drop/delay decisions
// driven by the same network.Profile semantics the simulator's Fabric
// applies — timely, eventually timely with a wall-clock GST, reliable,
// fair-lossy, lossy, down — plus runtime partitions (Cut/Heal) and a
// scheduled crash plan.
//
// Determinism guarantee: decision k on a directed link is a pure function
// of (seed, plan, k, afterGST_k), where afterGST_k tells whether the k-th
// send on that link happened at or after the plan's GST. Each link draws
// from a private RNG seeded by (seed, from, to); a cut link still computes
// its profile decision and only then masks it to "drop", so Cut/Heal never
// perturb the decision stream. Two runs with the same seed and plan
// therefore inject identical drop/delay sequences as long as each link
// classifies the same sends as pre-GST.
//
// The injector only decides; the transports report every injected drop
// through their obs.Sink (OnDrop), so metrics and trace observe injected
// faults exactly like organic loss.
package faultline

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
)

// Link names one directed link.
type Link struct {
	From, To node.ID
}

// Crash schedules one crash-stop failure, After the cluster starts.
type Crash struct {
	ID    node.ID
	After time.Duration
}

// Restart schedules one crash-recovery cycle: the process crash-stops
// After the cluster starts and reboots Downtime later. Unlike Crash, the
// process comes back — rebuilt from whatever its durable.Store recovered —
// and must rejoin the protocol. A zero Downtime means "reboot
// immediately".
type Restart struct {
	ID       node.ID
	After    time.Duration
	Downtime time.Duration
}

// Plan describes the faults to inject into a live cluster.
type Plan struct {
	// Default applies to every directed link without an override in
	// Links. The zero Profile means a perfect link: deliver immediately,
	// never drop.
	Default network.Profile
	// Links overrides the profile of individual directed links.
	Links map[Link]network.Profile
	// GST is the wall-clock global stabilization time as an offset from
	// cluster start. Before GST, eventually-timely links may delay up to
	// MaxDelay and drop with DropProb; from GST on they deliver within
	// Delta. Zero means "timely from boot".
	GST time.Duration
	// Crashes is the scheduled crash-stop plan; the transports arm one
	// timer per entry at Start.
	Crashes []Crash
	// Restarts is the scheduled crash-recovery plan; each entry kills the
	// process at After and reboots it at After+Downtime. A process may
	// appear in several entries (kill -9 it repeatedly) but scheduling
	// both a Crash and a Restart for the same process is rejected — the
	// permanent crash would race the reboot.
	Restarts []Restart
}

// linkState is one directed link's fault machinery. The RNG is advanced
// under the link's own mutex, so concurrent senders on different links
// never contend.
type linkState struct {
	mu      sync.Mutex
	profile network.Profile
	perfect bool // zero-valued profile: no drop, no delay
	rng     *rand.Rand
}

// Injector decides the fate of every message on a live cluster's links.
// It is safe for concurrent use: Transmit may be called from any sender
// goroutine while Cut/Isolate/Heal reconfigure the topology.
type Injector struct {
	n    int
	seed int64
	gst  time.Duration

	crashes  []Crash
	restarts []Restart
	links    []linkState // n*n, row-major [from*n+to]

	cutMu sync.RWMutex
	cut   []bool // n*n, true = severed (delivers nothing)
}

// New validates the plan and builds an injector for an n-process cluster.
func New(n int, seed int64, plan Plan) (*Injector, error) {
	if n < 2 {
		return nil, fmt.Errorf("faultline: n = %d, need at least 2", n)
	}
	if plan.GST < 0 {
		return nil, fmt.Errorf("faultline: negative GST %v", plan.GST)
	}
	if !isPerfect(plan.Default) {
		if err := plan.Default.Validate(); err != nil {
			return nil, err
		}
	}
	for l, p := range plan.Links {
		if err := checkLink(n, l.From, l.To); err != nil {
			return nil, err
		}
		if !isPerfect(p) {
			if err := p.Validate(); err != nil {
				return nil, fmt.Errorf("faultline: link %d->%d: %w", l.From, l.To, err)
			}
		}
	}
	crashed := make(map[node.ID]bool, len(plan.Crashes))
	for _, cr := range plan.Crashes {
		if int(cr.ID) < 0 || int(cr.ID) >= n {
			return nil, fmt.Errorf("faultline: crash id %d out of range", cr.ID)
		}
		if cr.After < 0 {
			return nil, fmt.Errorf("faultline: crash of %d at negative offset %v", cr.ID, cr.After)
		}
		crashed[cr.ID] = true
	}
	for _, rs := range plan.Restarts {
		if int(rs.ID) < 0 || int(rs.ID) >= n {
			return nil, fmt.Errorf("faultline: restart id %d out of range", rs.ID)
		}
		if rs.After < 0 {
			return nil, fmt.Errorf("faultline: restart of %d at negative offset %v", rs.ID, rs.After)
		}
		if rs.Downtime < 0 {
			return nil, fmt.Errorf("faultline: restart of %d with negative downtime %v", rs.ID, rs.Downtime)
		}
		if crashed[rs.ID] {
			return nil, fmt.Errorf("faultline: process %d has both a crash and a restart scheduled", rs.ID)
		}
	}
	inj := &Injector{
		n:        n,
		seed:     seed,
		gst:      plan.GST,
		crashes:  append([]Crash(nil), plan.Crashes...),
		restarts: append([]Restart(nil), plan.Restarts...),
		links:    make([]linkState, n*n),
		cut:      make([]bool, n*n),
	}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			p := plan.Default
			if over, ok := plan.Links[Link{From: node.ID(from), To: node.ID(to)}]; ok {
				p = over
			}
			ls := &inj.links[from*n+to]
			ls.profile = p
			ls.perfect = isPerfect(p)
			ls.rng = sim.NewRand(linkSeed(seed, from, to, n))
		}
	}
	return inj, nil
}

// isPerfect reports whether p is the zero Profile, meaning "no fault".
func isPerfect(p network.Profile) bool { return p == (network.Profile{}) }

func checkLink(n int, from, to node.ID) error {
	if int(from) < 0 || int(from) >= n || int(to) < 0 || int(to) >= n {
		return fmt.Errorf("faultline: link %d->%d out of range for n=%d", from, to, n)
	}
	if from == to {
		return fmt.Errorf("faultline: self-link %d->%d", from, to)
	}
	return nil
}

// linkSeed derives a per-directed-link RNG seed from the injector seed via
// a splitmix64 step, so links draw independent, reproducible streams.
func linkSeed(seed int64, from, to, n int) int64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15*uint64(from*n+to+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// N returns the cluster size the injector was built for.
func (inj *Injector) N() int { return inj.n }

// GST returns the plan's wall-clock global stabilization offset.
func (inj *Injector) GST() time.Duration { return inj.gst }

// Crashes returns a copy of the scheduled crash plan. Callers get their
// own slice: mutating it cannot corrupt the injector's schedule.
func (inj *Injector) Crashes() []Crash { return append([]Crash(nil), inj.crashes...) }

// Restarts returns a copy of the scheduled crash-recovery plan.
func (inj *Injector) Restarts() []Restart { return append([]Restart(nil), inj.restarts...) }

// Transmit decides the fate of one message sent on from→to at the given
// elapsed time since cluster start: lost, or delivered after the returned
// extra delay. The profile decision is computed (advancing the link's RNG)
// even when the link is cut, preserving the package's determinism
// guarantee across Cut/Heal.
func (inj *Injector) Transmit(from, to node.ID, elapsed time.Duration) (time.Duration, bool) {
	if err := checkLink(inj.n, from, to); err != nil {
		panic(err)
	}
	idx := int(from)*inj.n + int(to)
	ls := &inj.links[idx]
	ls.mu.Lock()
	var delay time.Duration
	ok := true
	if !ls.perfect {
		delay, ok = ls.profile.Transmit(elapsed >= inj.gst, ls.rng)
	}
	ls.mu.Unlock()

	inj.cutMu.RLock()
	severed := inj.cut[idx]
	inj.cutMu.RUnlock()
	if severed {
		return 0, false
	}
	return delay, ok
}

// Cut partitions groups a and b: every link between a member of a and a
// member of b, in both directions, is severed. Links within each group are
// untouched. Ids present in both groups cut themselves off from everyone
// in the other listing, as written.
func (inj *Injector) Cut(a, b []node.ID) {
	inj.cutMu.Lock()
	defer inj.cutMu.Unlock()
	for _, p := range a {
		for _, q := range b {
			if p == q {
				continue
			}
			inj.cut[int(p)*inj.n+int(q)] = true
			inj.cut[int(q)*inj.n+int(p)] = true
		}
	}
}

// Isolate severs every link to and from id (a total partition of one).
func (inj *Injector) Isolate(id node.ID) {
	inj.cutMu.Lock()
	defer inj.cutMu.Unlock()
	for q := 0; q < inj.n; q++ {
		if node.ID(q) == id {
			continue
		}
		inj.cut[int(id)*inj.n+q] = true
		inj.cut[q*inj.n+int(id)] = true
	}
}

// Heal removes every cut, restoring all links to their profiles.
func (inj *Injector) Heal() {
	inj.cutMu.Lock()
	for i := range inj.cut {
		inj.cut[i] = false
	}
	inj.cutMu.Unlock()
}
