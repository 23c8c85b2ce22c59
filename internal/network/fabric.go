package network

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// DeliverFunc receives a payload at its destination.
type DeliverFunc func(from, to int, payload any)

// Fabric is the simulated network connecting n processes. Each of the n*(n-1)
// directed links has its own Profile; the fabric owns the global
// stabilization time (GST) that eventually-timely links refer to, and a
// "cut" overlay for injecting partitions on top of any profile.
//
// The send path is allocation-free in steady state: in-flight messages ride
// pooled delivery records (see inFlight) instead of per-send closures, and
// Send takes a pre-interned kind id so no string is hashed.
type Fabric struct {
	kernel   *sim.Kernel
	n        int
	gst      sim.Time
	profiles []Profile
	cut      []bool
	sink     obs.Sink
	deliver  DeliverFunc

	// freeDeliveries is the delivery-record free list. The fabric is
	// single-threaded (it lives inside one kernel), so no lock is needed.
	// A record never used yet is chunk[minted], the next of the current
	// chunk.
	freeDeliveries *inFlight
	chunk          []inFlight
	minted         int
}

// chunkFirst and chunkMax bound the delivery records a fabric mints at
// once: they double from the first to the last, so a fabric that comes to
// carry n messages at once has made O(log n) allocations for them.
const chunkFirst, chunkMax = 16, 256

// inFlight is one in-flight message. The kernel runs the record itself
// (sim.Runner), so scheduling a delivery binds no closure.
type inFlight struct {
	f       *Fabric
	from    int32
	to      int32
	kind    obs.Kind
	payload any
	next    *inFlight // free-list link
}

// Run hands the message to its destination and returns the record to the
// pool. The record is released before the delivery callback runs, so sends
// performed inside the callback reuse the hot record.
func (d *inFlight) Run() {
	f := d.f
	from, to, kind, payload := int(d.from), int(d.to), d.kind, d.payload
	d.payload = nil
	d.next = f.freeDeliveries
	f.freeDeliveries = d
	f.sink.OnDeliver(f.kernel.Now(), from, to, kind)
	f.deliver(from, to, payload)
}

// newDelivery takes a record from the pool, or cuts a new one from the
// current chunk, minting a chunk twice the last one's size when it is used
// up (the only allocation this path can make, amortized to zero in steady
// state).
func (f *Fabric) newDelivery() *inFlight {
	d := f.freeDeliveries
	if d == nil {
		if f.minted == len(f.chunk) {
			f.chunk, f.minted = make([]inFlight, min(max(chunkFirst, 2*len(f.chunk)), chunkMax)), 0
		}
		d = &f.chunk[f.minted]
		f.minted++
		d.f = f
		return d
	}
	f.freeDeliveries = d.next
	d.next = nil
	return d
}

// NewFabric creates a fabric for n processes whose links all start with the
// given default profile. Every message event is reported to sink (nil for
// no instrumentation); compose observers with obs.Tee.
func NewFabric(k *sim.Kernel, n int, def Profile, sink obs.Sink) (*Fabric, error) {
	if n < 1 {
		return nil, fmt.Errorf("network: fabric needs at least one process, got %d", n)
	}
	if err := def.Validate(); err != nil {
		return nil, fmt.Errorf("default profile: %w", err)
	}
	if sink == nil {
		sink = obs.Nop{}
	}
	f := &Fabric{
		kernel:   k,
		n:        n,
		gst:      sim.TimeZero,
		profiles: make([]Profile, n*n),
		cut:      make([]bool, n*n),
		sink:     sink,
	}
	for i := range f.profiles {
		f.profiles[i] = def
	}
	return f, nil
}

// SetDeliver installs the delivery callback. It must be set before the
// first Send.
func (f *Fabric) SetDeliver(fn DeliverFunc) { f.deliver = fn }

// SetGST sets the instant after which eventually-timely links are timely.
func (f *Fabric) SetGST(t sim.Time) { f.gst = t }

func (f *Fabric) index(from, to int) int {
	if from < 0 || from >= f.n || to < 0 || to >= f.n {
		panic(fmt.Sprintf("network: link %d→%d out of range for n=%d", from, to, f.n))
	}
	return from*f.n + to
}

// Profile returns the current profile of the from→to link.
func (f *Fabric) Profile(from, to int) Profile { return f.profiles[f.index(from, to)] }

// SetProfile replaces the profile of one directed link.
func (f *Fabric) SetProfile(from, to int, p Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	f.profiles[f.index(from, to)] = p
	return nil
}

// SetOutgoing replaces the profiles of all links leaving from (self link
// excluded).
func (f *Fabric) SetOutgoing(from int, p Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for to := 0; to < f.n; to++ {
		if to != from {
			f.profiles[f.index(from, to)] = p
		}
	}
	return nil
}

// SetIncoming replaces the profiles of all links arriving at to (self link
// excluded).
func (f *Fabric) SetIncoming(to int, p Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for from := 0; from < f.n; from++ {
		if from != to {
			f.profiles[f.index(from, to)] = p
		}
	}
	return nil
}

// SetAll replaces every link profile.
func (f *Fabric) SetAll(p Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for i := range f.profiles {
		f.profiles[i] = p
	}
	return nil
}

// Cut force-drops all traffic on the from→to link until Heal.
func (f *Fabric) Cut(from, to int) { f.cut[f.index(from, to)] = true }

// Heal removes a Cut.
func (f *Fabric) Heal(from, to int) { f.cut[f.index(from, to)] = false }

// CutBidirectional cuts both directions between a and b.
func (f *Fabric) CutBidirectional(a, b int) {
	f.Cut(a, b)
	f.Cut(b, a)
}

// HealBidirectional heals both directions between a and b.
func (f *Fabric) HealBidirectional(a, b int) {
	f.Heal(a, b)
	f.Heal(b, a)
}

// Isolate cuts every link to and from id.
func (f *Fabric) Isolate(id int) {
	for other := 0; other < f.n; other++ {
		if other != id {
			f.CutBidirectional(id, other)
		}
	}
}

// Rejoin heals every link to and from id.
func (f *Fabric) Rejoin(id int) {
	for other := 0; other < f.n; other++ {
		if other != id {
			f.HealBidirectional(id, other)
		}
	}
}

// Send transmits payload on the from→to directed link. The message is
// dropped or scheduled for delivery according to the link profile; kind,
// interned once by the protocol (obs.Intern), is used only for accounting,
// so the send performs zero map lookups and zero allocations.
func (f *Fabric) Send(from, to int, kind obs.Kind, payload any) {
	if f.deliver == nil {
		panic("network: Send before SetDeliver")
	}
	if from == to {
		panic(fmt.Sprintf("network: process %d sending to itself", from))
	}
	now := f.kernel.Now()
	idx := f.index(from, to)
	f.sink.OnSend(now, from, to, kind)
	delay, ok := f.profiles[idx].Transmit(now >= f.gst, f.kernel.Rand())
	if !ok || f.cut[idx] {
		f.sink.OnDrop(now, from, to, kind)
		return
	}
	d := f.newDelivery()
	d.from, d.to, d.kind, d.payload = int32(from), int32(to), kind, payload
	f.kernel.ScheduleRun(delay, d)
}
