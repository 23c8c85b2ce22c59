// Package faultline injects deterministic, seeded faults into the live
// transports (internal/transport): per-directed-link drop/delay decisions
// driven by the same network.Profile semantics the simulator's Fabric
// applies — timely, eventually timely with a wall-clock GST, reliable,
// fair-lossy, lossy, down — plus runtime partitions (Cut/Heal) and a
// fault Schedule: the one description of a cut, heal, crash or restart,
// which the simulator applies too (DESIGN.md §10).
//
// Determinism guarantee: decision k on a directed link is a pure function
// of (seed, plan, k, afterGST_k), where afterGST_k tells whether the k-th
// send on that link happened at or after the plan's GST. Each link draws
// from a private RNG seeded by (seed, from, to); a cut link still computes
// its profile decision and only then masks it to "drop", so neither Cut
// and Heal nor a schedule's cuts and heals perturb the decision stream.
// Two runs with the same seed and plan therefore inject identical
// drop/delay sequences as long as each link classifies the same sends as
// pre-GST.
//
// The injector only decides; the transports report every injected drop
// through their obs.Sink (OnDrop), so metrics and trace observe injected
// faults exactly like organic loss.
package faultline

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
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

// Op is what one schedule event does.
type Op uint8

// The four events of a fault schedule.
const (
	OpCut     Op = iota // the link From→To delivers nothing
	OpHeal              // the link From→To has its profile back
	OpCrash             // process From crash-stops, if it is up
	OpRestart           // process From reboots, if it is down (live only)
)

var opNames = [...]string{"cut", "heal", "crash", "restart"}

// Event is one fault at an offset from the start of the run: a cut or a
// heal of the directed link From→To, or a crash or a restart of process
// From, with To 0.
type Event struct {
	At       time.Duration
	Op       Op
	From, To node.ID
}

// Schedule is a fault schedule: events in time order, events at one
// instant in the order written (DESIGN.md §10). Its byte form is five
// bytes an event: op, from, to, and the offset in whole milliseconds as a
// big-endian uint16.
type Schedule []Event

// Validate reports whether s is a valid schedule for n processes: ids in
// range, no link from a process to itself, offsets ≥ 0 and in time order.
func (s Schedule) Validate(n int) error {
	for i, e := range s {
		inRange := int(e.From) >= 0 && int(e.From) < n && int(e.To) >= 0 && int(e.To) < n
		ordered := e.At >= 0 && (i == 0 || e.At >= s[i-1].At)
		if e.Op > OpRestart || !inRange || !ordered || (e.Op <= OpHeal && e.From == e.To) {
			return fmt.Errorf("faultline: event %d, %v: a bad op or id for n=%d, a self-link, or out of time order", i, s[i:i+1], n)
		}
	}
	return nil
}

// Has reports whether s holds an event of kind op.
func (s Schedule) Has(op Op) bool {
	return slices.ContainsFunc(s, func(e Event) bool { return e.Op == op })
}

// Bytes is the byte form of s; an offset is rounded down to the
// millisecond and capped at 65.535 s.
func (s Schedule) Bytes() []byte {
	var out []byte
	for _, e := range s {
		out = append(out, byte(e.Op), byte(e.From), byte(e.To))
		out = binary.BigEndian.AppendUint16(out, uint16(min(e.At/time.Millisecond, 1<<16-1)))
	}
	return out
}

// Decode reads a schedule for 2 ≤ n ≤ 256 processes from its byte form,
// and every input decodes to a valid one: the op and the ids wrap, a link
// to itself turns to the next process, offsets clamp to horizon, events
// are sorted by offset (stably), and a short tail is ignored. It inverts
// Bytes on a valid schedule of whole milliseconds up to horizon.
func Decode(data []byte, n int, horizon time.Duration) Schedule {
	var s Schedule
	for ; len(data) >= 5; data = data[5:] {
		e := Event{Op: Op(data[0] % 4), From: node.ID(int(data[1]) % n)}
		if e.Op <= OpHeal {
			if e.To = node.ID(int(data[2]) % n); e.To == e.From {
				e.To = (e.From + 1) % node.ID(n)
			}
		}
		e.At = min(time.Duration(binary.BigEndian.Uint16(data[3:]))*time.Millisecond, horizon)
		s = append(s, e)
	}
	slices.SortStableFunc(s, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
	return s
}

// String prints s as text: cut(0,1)@40ms crash(2)@80ms.
func (s Schedule) String() string {
	var b strings.Builder
	for i, e := range s {
		ids := fmt.Sprint(e.From)
		if e.Op <= OpHeal {
			ids += fmt.Sprint(",", e.To)
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s(%s)@%v", opNames[e.Op%4], ids, e.At)
	}
	return b.String()
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
	// Schedule is the fault schedule, its offsets from cluster start:
	// Transmit applies its cuts and heals, the transports its crashes and
	// restarts.
	Schedule Schedule
}

// linkState is one directed link's fault machinery. The RNG is advanced
// under the link's own mutex, so concurrent senders on different links
// never contend.
type linkState struct {
	mu      sync.Mutex
	profile network.Profile
	perfect bool // zero-valued profile: no drop, no delay
	rng     *rand.Rand
	sched   []Event // the schedule's cuts and heals of this link
}

// Injector decides the fate of every message on a live cluster's links.
// It is safe for concurrent use: Transmit may be called from any sender
// goroutine while Cut and Heal reconfigure the topology.
type Injector struct {
	n     int
	gst   time.Duration
	sched Schedule
	links []linkState // n*n, row-major [from*n+to]

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
	if err := plan.Schedule.Validate(n); err != nil {
		return nil, err
	}
	inj := &Injector{
		n:     n,
		gst:   plan.GST,
		sched: slices.Clone(plan.Schedule),
		links: make([]linkState, n*n),
		cut:   make([]bool, n*n),
	}
	for _, e := range inj.sched {
		if e.Op <= OpHeal {
			ls := &inj.links[int(e.From)*n+int(e.To)]
			ls.sched = append(ls.sched, e)
		}
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

// Schedule returns a copy of the plan's fault schedule: mutating it cannot
// corrupt the injector's.
func (inj *Injector) Schedule() Schedule { return slices.Clone(inj.sched) }

// Transmit decides the fate of one message sent on from→to at the given
// elapsed time since cluster start: lost, or delivered after the returned
// extra delay. The profile decision is computed (advancing the link's RNG)
// even when the link is cut, by Cut or by the schedule's last cut or heal
// of the link at or before elapsed, preserving the package's determinism
// guarantee.
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
	scheduled := false
	for _, e := range ls.sched {
		if e.At > elapsed {
			break
		}
		scheduled = e.Op == OpCut
	}
	if severed || scheduled {
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

// Heal removes every Cut, restoring those links to their profiles; the
// schedule's cuts keep to the schedule.
func (inj *Injector) Heal() {
	inj.cutMu.Lock()
	for i := range inj.cut {
		inj.cut[i] = false
	}
	inj.cutMu.Unlock()
}
