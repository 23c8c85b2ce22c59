package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServeEndpoints(t *testing.T) {
	clk := &fakeClock{}
	stats := metrics.NewMessageStats(3)
	c := New(3)
	c.AttachStats(stats, clk.now)

	srv, err := Serve("127.0.0.1:0", c, func(w io.Writer) error {
		_, err := io.WriteString(w, "{}\n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// No agreement yet: /healthz must refuse.
	code, body := get(t, base+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while disputed: status %d, want 503", code)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz body not JSON: %v\n%s", err, body)
	}
	if h.Agreed || h.Leader != -1 {
		t.Fatalf("disputed health = %+v", h)
	}

	// Feed some state and scrape.
	stats.OnSend(sim.At(time.Millisecond), 0, 1, obs.Intern("LEADER"))
	for id := 0; id < 3; id++ {
		leaderChange(c, sim.At(2*time.Millisecond), id, 0)
	}
	clk.set(10 * time.Millisecond)

	code, body = get(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz after agreement: status %d\n%s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if !h.Agreed || h.Leader != 0 || h.Epoch != 1 {
		t.Fatalf("health = %+v, want agreed leader 0 epoch 1", h)
	}

	code, body = get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, want := range []string{
		"omega_sent_total 1",
		"omega_active_links 1",
		"omega_leader 0",
		"omega_elections_total 1",
		"omega_non_leader_sends_total 0",
		"omega_election_downtime_seconds_count 1",
		"omega_heartbeat_interarrival_seconds_bucket",
		"omega_decision_latency_seconds_sum",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if code, body = get(t, base+"/trace"); code != http.StatusOK || body != "{}\n" {
		t.Fatalf("/trace: status %d body %q, want 200 and the trace source's {}", code, body)
	}

	// pprof is mounted.
	code, body = get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK || len(body) == 0 {
		t.Fatalf("/debug/pprof/cmdline: status %d, %d bytes", code, len(body))
	}
}

func TestServeWithoutTraceHasNoTraceRoute(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", New(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, _ := get(t, "http://"+srv.Addr()+"/trace"); code != http.StatusNotFound {
		t.Fatalf("/trace with a nil source: status %d, want 404", code)
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.256.256.256:99999", New(2), nil); err == nil {
		t.Fatal("Serve on a bogus address should fail")
	}
}
