package network

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestCutAffectsSendsNotInFlight pins down the partition semantics: Cut
// decides the fate of messages at send time; messages already in flight
// still deliver. (A real cable cut would also kill in-flight traffic, but
// for the protocols under test the difference is one delivery of at most
// δ age, and send-time semantics keep runs deterministic.)
func TestCutAffectsSendsNotInFlight(t *testing.T) {
	k, f, got, _ := newTestFabric(t, 2, Timely(10*ms), 0)
	f.Send(0, 1, kindX, "in-flight")
	f.Cut(0, 1)
	f.Send(0, 1, kindX, "after-cut")
	k.RunFor(time.Second)
	if len(*got) != 1 {
		t.Fatalf("deliveries = %d, want only the in-flight message", len(*got))
	}
	if (*got)[0].payload != "in-flight" {
		t.Fatalf("delivered %v", (*got)[0].payload)
	}
}

// TestReliableDelayWithinBounds samples many deliveries and checks the
// configured bounds hold exactly.
func TestReliableDelayWithinBounds(t *testing.T) {
	lo, hi := 5*ms, 50*ms
	k, f, got, _ := newTestFabric(t, 2, Reliable(lo, hi), 0)
	const sends = 400
	for i := 0; i < sends; i++ {
		f.Send(0, 1, kindX, i)
	}
	k.RunFor(time.Second)
	if len(*got) != sends {
		t.Fatalf("delivered %d, want %d", len(*got), sends)
	}
	var below, above int
	for _, d := range *got {
		delay := d.at.Duration()
		if delay < lo {
			below++
		}
		if delay > hi {
			above++
		}
	}
	if below != 0 || above != 0 {
		t.Fatalf("delays out of [%v,%v]: %d below, %d above", lo, hi, below, above)
	}
	// The samples should actually spread over the range, not cluster at
	// one endpoint.
	var nearLo, nearHi int
	for _, d := range *got {
		if d.at.Duration() < lo+(hi-lo)/4 {
			nearLo++
		}
		if d.at.Duration() > hi-(hi-lo)/4 {
			nearHi++
		}
	}
	if nearLo == 0 || nearHi == 0 {
		t.Fatalf("delay distribution degenerate: %d near lo, %d near hi", nearLo, nearHi)
	}
}

// TestGSTBoundaryExactlyAtGSTIsTimely: a message sent at t == GST already
// enjoys the bound (the definition is "sent at or after GST").
func TestGSTBoundaryExactlyAtGSTIsTimely(t *testing.T) {
	gst := sim.At(100 * ms)
	k, f, got, stats := newTestFabric(t, 2, EventuallyTimely(5*ms, 500*ms, 1.0), gst)
	// Pre-GST with drop=1.0: everything sent strictly before GST is lost.
	f.Send(0, 1, kindPRE, nil)
	k.RunUntil(gst, nil)
	for i := 0; i < 50; i++ {
		f.Send(0, 1, kindAT, i)
	}
	k.RunFor(time.Second)
	if stats.Dropped() != 1 {
		t.Fatalf("dropped = %d, want exactly the pre-GST message", stats.Dropped())
	}
	for _, d := range *got {
		if d.at > gst.Add(5*ms) {
			t.Fatalf("post-GST delivery at %v exceeds GST+δ", d.at)
		}
	}
	if len(*got) != 50 {
		t.Fatalf("delivered %d, want 50", len(*got))
	}
}
