package telemetry_test

import (
	"bufio"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// TestQuiescenceEndToEnd boots a real 5-node TCP cluster running the
// paper's core detector and asserts, through the telemetry gauges alone,
// that the steady state the paper promises is reached and holds: exactly
// n-1 directed links active, and the non-leader send counter (net of
// accusation traffic) flat over an observation window. Run under -race
// this doubles as a concurrency test of the whole observer pipeline.
func TestQuiescenceEndToEnd(t *testing.T) {
	const (
		n   = 5
		eta = 4 * time.Millisecond
	)
	tel := telemetry.New(n)

	// A generous timeout keeps goroutine-scheduling jitter on loaded CI
	// machines from triggering spurious accusations mid-test.
	dets := make([]*core.Detector, n)
	autos := make([]node.Automaton, n)
	for i := range autos {
		dets[i] = core.New(core.WithEta(eta), core.WithBaseTimeout(100*time.Millisecond))
		autos[i] = dets[i]
	}
	c, err := transport.NewTCPCluster(transport.Config{N: n, Seed: 42, Quiet: true, Observer: tel}, autos)
	if err != nil {
		t.Fatal(err)
	}
	tel.AttachStats(c.Stats(), c.Now)
	for i, d := range dets {
		telemetry.Attach(tel, tel, telemetry.Process{ID: node.ID(i), History: d.History()})
	}
	c.Start()
	defer c.Stop()

	// Wait for quiescence: cluster-wide agreement AND the sliding window
	// fully past the election chatter, so only the leader's n-1 links show.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := tel.Leader(); ok && tel.ActiveLinks() == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not quiesce within 10s: leader=%v links=%d",
				mustLeader(tel), tel.ActiveLinks())
		}
		time.Sleep(10 * time.Millisecond)
	}
	leader, _ := tel.Leader()

	// Communication efficiency: over a full observation window, the
	// non-leader counter (net of accusations/rebuffs) must not move.
	base := tel.NonLeaderSends(core.KindAccuse, core.KindRebuff)
	time.Sleep(telemetry.QuiescenceWindow)
	if got := tel.NonLeaderSends(core.KindAccuse, core.KindRebuff); got != base {
		t.Errorf("non-leader sends moved %d -> %d during steady state", base, got)
	}
	if got := tel.ActiveLinks(); got != n-1 {
		t.Errorf("active links = %d after hold window, want %d", got, n-1)
	}

	// Sanity on the rest of the surface while the cluster is live. Re-read
	// the leader in case an (unexpected) re-election happened above.
	leader, _ = tel.Leader()
	h := tel.Health()
	if !h.Agreed || h.Leader != int(leader) || h.Epoch == 0 {
		t.Errorf("health = %+v, want agreement on %d", h, leader)
	}
	if tel.Hist(telemetry.ElectionDowntime).Count == 0 {
		t.Error("no election downtime recorded for the initial election")
	}
	hb := tel.Hist(telemetry.HeartbeatInterarrival)
	if hb.Count == 0 {
		t.Error("no heartbeat inter-arrivals recorded")
	}
	// Inter-arrival p50 should be on the order of η — generous bound to
	// stay robust under -race and loaded CI machines.
	if p50 := hb.Quantile(0.5); p50 < eta/4 || p50 > 50*eta {
		t.Errorf("heartbeat inter-arrival p50 = %v, want within [η/4, 50η] of η=%v", p50, eta)
	}
}

// mustLeader reads the agreed leader for error messages, -1 when disputed.
func mustLeader(tel *telemetry.Collector) int {
	if l, ok := tel.Leader(); ok {
		return int(l)
	}
	return -1
}

// TestQuiescenceLiveTCPMetricsEndpoint is the acceptance check end to end
// on real sockets: boot a 5-node TCP cluster, serve the telemetry
// endpoint, and scrape /metrics over HTTP until it reports
// omega_active_links = n-1 with omega_non_leader_sends_total flat —
// the steady state as an operator would actually observe it.
func TestQuiescenceLiveTCPMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP e2e; skipped in -short")
	}
	const n = 5
	tel := telemetry.New(n)
	dets := make([]*core.Detector, n)
	autos := make([]node.Automaton, n)
	for i := range autos {
		dets[i] = core.New(core.WithEta(4*time.Millisecond), core.WithBaseTimeout(100*time.Millisecond))
		autos[i] = dets[i]
	}
	c, err := transport.NewTCPCluster(transport.Config{N: n, Seed: 7, Quiet: true, Observer: tel}, autos)
	if err != nil {
		t.Fatal(err)
	}
	tel.AttachStats(c.Stats(), c.Now)
	for i, d := range dets {
		telemetry.Attach(tel, tel, telemetry.Process{ID: node.ID(i), History: d.History()})
	}
	c.Start()
	defer c.Stop()

	srv, err := telemetry.Serve("127.0.0.1:0", tel, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	scrape := func(metric string) (float64, bool) {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), metric+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("metric %s = %q: %v", metric, v, err)
				}
				return f, true
			}
		}
		return 0, false
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if links, ok := scrape("omega_active_links"); ok && links == n-1 {
			break
		}
		if time.Now().After(deadline) {
			links, _ := scrape("omega_active_links")
			t.Fatalf("scraped omega_active_links = %v, never reached n-1 = %d", links, n-1)
		}
		time.Sleep(20 * time.Millisecond)
	}

	before, ok := scrape("omega_non_leader_sends_total")
	if !ok {
		t.Fatal("omega_non_leader_sends_total missing from /metrics")
	}
	time.Sleep(telemetry.QuiescenceWindow)
	after, _ := scrape("omega_non_leader_sends_total")
	if after != before {
		t.Errorf("omega_non_leader_sends_total moved %v -> %v during steady state", before, after)
	}
	if links, _ := scrape("omega_active_links"); links != n-1 {
		t.Errorf("omega_active_links = %v after hold window, want %d", links, n-1)
	}
	if leader, ok := scrape("omega_leader"); !ok || leader < 0 {
		t.Errorf("omega_leader = %v, want an agreed id", leader)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz on a stabilized cluster: status %d", resp.StatusCode)
	}
}

// TestStableForReadsTheClusterClock: the collector reads the clock of the
// runtime it is attached to, the one its events are stamped on, so a
// collector built half a second before its cluster does not count the
// set-up into how long the first agreement has held.
func TestStableForReadsTheClusterClock(t *testing.T) {
	const n = 3
	tel := telemetry.New(n)
	time.Sleep(500 * time.Millisecond)
	dets := make([]*core.Detector, n)
	autos := make([]node.Automaton, n)
	for i := range autos {
		dets[i] = core.New(core.WithEta(4*time.Millisecond), core.WithBaseTimeout(100*time.Millisecond))
		autos[i] = dets[i]
	}
	c, err := transport.NewTCPCluster(transport.Config{N: n, Seed: 3, Quiet: true, Observer: tel}, autos)
	if err != nil {
		t.Fatal(err)
	}
	tel.AttachStats(c.Stats(), c.Now)
	for i, d := range dets {
		telemetry.Attach(tel, tel, telemetry.Process{ID: node.ID(i), History: d.History()})
	}
	c.Start()
	defer c.Stop()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := tel.Leader(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no agreement within 10s")
		}
	}
	if since, ok := tel.TimeSinceLastElection(); !ok || since >= 250*time.Millisecond {
		t.Fatalf("TimeSinceLastElection = %v/%v right after agreement formed, want under 250ms", since, ok)
	}
}
