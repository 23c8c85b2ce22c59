package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestPrometheusExpositionGolden pins the exact exposition text for a
// deterministically driven collector — every metric family WritePrometheus
// emits, including the +Inf bucket and the seconds-unit cumulative le
// values of every histogram. Scrapers and the Grafana dashboards parse
// this text by name and label; a prom.go refactor that reorders families,
// drops the +Inf line, or switches bucket units must fail here instead of
// silently breaking them. If the change is intentional, update the golden
// below and the dashboards together.
func TestPrometheusExpositionGolden(t *testing.T) {
	ms := func(d int) sim.Time { return sim.Time(d) * sim.Time(time.Millisecond) }

	st := metrics.NewMessageStats(2)
	c := New(2)
	c.AttachStats(st, func() sim.Time { return ms(2000) })

	// Both processes converge on leader 1 at 200ms: one election, two
	// per-process transitions, 200ms of initial-election downtime.
	leaderChange(c, ms(100), 0, 1)
	leaderChange(c, ms(200), 1, 1)

	// Wire traffic inside the 1s quiescence window ending at the 2s scrape
	// instant: two LEADER heartbeats on 0→1 and one dropped ACCEPT on 1→0,
	// so active_links reads 2 and non_leader_sends counts only p0's sends.
	leaderK, acceptK := obs.Intern("LEADER"), obs.Intern("ACCEPT")
	st.OnSend(ms(1500), 0, 1, leaderK)
	st.OnSend(ms(1750), 0, 1, leaderK)
	st.OnDeliver(ms(1500), 0, 1, leaderK)
	st.OnDeliver(ms(1750), 0, 1, leaderK)
	st.OnWireBytes(ms(1500), 0, 1, leaderK, 64)
	st.OnWireBytes(ms(1750), 0, 1, leaderK, 64)
	st.OnSend(ms(1600), 1, 0, acceptK)
	st.OnDrop(ms(1600), 1, 0, acceptK)

	// Heartbeat inter-arrival: 250ms between the two deliveries.
	c.OnDeliver(ms(1500), 0, 1, leaderK)
	c.OnDeliver(ms(1750), 0, 1, leaderK)

	// Two decisions at 1ms and 3ms proposer-side latency.
	decided(c, 0, 1*time.Millisecond)
	decided(c, 1, 3*time.Millisecond)

	// Read path: p0 holds the lease and has served 10 local + 2 fallback
	// reads; p1 has 5 local + 1 fallback from an earlier reign.
	c.Probe(func() (bool, uint64, uint64) { return true, 10, 2 })
	c.Probe(func() (bool, uint64, uint64) { return false, 5, 1 })

	// One vectored flush of 3 frames / 200 bytes, and the durability view:
	// a 500µs fsync, a 48-byte append, a 20ms recovery.
	FlushHook(c)(0, 1, 3, 200)
	now := func() sim.Time { return ms(1900) }
	onAppend, onFsync, _ := WALHooks(c, 0, now)
	onFsync(500 * time.Microsecond)
	onAppend(48)
	_, _, onRecover := WALHooks(c, 1, now)
	onRecover(20 * time.Millisecond)

	// One process's decision stream, attached without a lease probe.
	rec := consensus.NewRecorder()
	Attach(c, c, Process{ID: 0, Recorder: rec})
	rec.RecordInstance(0, consensus.NoValue, sim.At(time.Millisecond), 0, []sim.Time{0})

	var buf bytes.Buffer
	c.WritePrometheus(&buf)
	got := buf.String()

	if got != promGolden {
		gl, wl := strings.Split(got, "\n"), strings.Split(promGolden, "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n  got:  %q\n  want: %q", i+1, g, w)
			}
		}
		t.Fatalf("exposition text diverged from golden (full output):\n%s", got)
	}
}

const promGolden = `# HELP omega_sent_total Messages handed to the links.
# TYPE omega_sent_total counter
omega_sent_total 3
# HELP omega_delivered_total Messages delivered.
# TYPE omega_delivered_total counter
omega_delivered_total 2
# HELP omega_dropped_total Messages lost in transit.
# TYPE omega_dropped_total counter
omega_dropped_total 1
# HELP omega_wire_bytes_total Encoded bytes handed to the links.
# TYPE omega_wire_bytes_total counter
omega_wire_bytes_total 128
# HELP omega_sent_kind_total Messages sent per kind.
# TYPE omega_sent_kind_total counter
omega_sent_kind_total{kind="ACCEPT"} 1
omega_sent_kind_total{kind="LEADER"} 2
# HELP omega_sent_by_total Messages sent per process.
# TYPE omega_sent_by_total counter
omega_sent_by_total{process="0"} 2
omega_sent_by_total{process="1"} 1
# HELP omega_active_links Directed links that carried a message within the quiescence window.
# TYPE omega_active_links gauge
omega_active_links 2
# HELP omega_quiescence_window_seconds Sliding window used by omega_active_links.
# TYPE omega_quiescence_window_seconds gauge
omega_quiescence_window_seconds 1
# HELP omega_non_leader_sends_total Messages sent by processes other than the stable leader.
# TYPE omega_non_leader_sends_total gauge
omega_non_leader_sends_total 2
# HELP omega_leader Cluster-wide agreed leader id, -1 while disputed.
# TYPE omega_leader gauge
omega_leader 1
# HELP omega_time_since_last_election_seconds How long the current agreement has held, -1 before the first.
# TYPE omega_time_since_last_election_seconds gauge
omega_time_since_last_election_seconds 1.8
# HELP omega_elections_total Times cluster-wide agreement formed.
# TYPE omega_elections_total counter
omega_elections_total 1
# HELP omega_leader_changes_total Per-process leader-output transitions.
# TYPE omega_leader_changes_total counter
omega_leader_changes_total 2
# HELP omega_decides_total Consensus decisions learned across watched recorders.
# TYPE omega_decides_total counter
omega_decides_total 3
# HELP rsm_lease_held Watched processes currently holding the leader lease (0 or 1 when healthy).
# TYPE rsm_lease_held gauge
rsm_lease_held 1
# HELP rsm_reads_local_total Reads served locally under a lease, with zero consensus messages.
# TYPE rsm_reads_local_total counter
rsm_reads_local_total 15
# HELP rsm_reads_fallback_total Reads confirmed by a round of grants that a majority acked.
# TYPE rsm_reads_fallback_total counter
rsm_reads_fallback_total 3
# TYPE omega_election_downtime_seconds histogram
omega_election_downtime_seconds_bucket{le="1e-09"} 0
omega_election_downtime_seconds_bucket{le="2e-09"} 0
omega_election_downtime_seconds_bucket{le="4e-09"} 0
omega_election_downtime_seconds_bucket{le="8e-09"} 0
omega_election_downtime_seconds_bucket{le="1.6e-08"} 0
omega_election_downtime_seconds_bucket{le="3.2e-08"} 0
omega_election_downtime_seconds_bucket{le="6.4e-08"} 0
omega_election_downtime_seconds_bucket{le="1.28e-07"} 0
omega_election_downtime_seconds_bucket{le="2.56e-07"} 0
omega_election_downtime_seconds_bucket{le="5.12e-07"} 0
omega_election_downtime_seconds_bucket{le="1.024e-06"} 0
omega_election_downtime_seconds_bucket{le="2.048e-06"} 0
omega_election_downtime_seconds_bucket{le="4.096e-06"} 0
omega_election_downtime_seconds_bucket{le="8.192e-06"} 0
omega_election_downtime_seconds_bucket{le="1.6384e-05"} 0
omega_election_downtime_seconds_bucket{le="3.2768e-05"} 0
omega_election_downtime_seconds_bucket{le="6.5536e-05"} 0
omega_election_downtime_seconds_bucket{le="0.000131072"} 0
omega_election_downtime_seconds_bucket{le="0.000262144"} 0
omega_election_downtime_seconds_bucket{le="0.000524288"} 0
omega_election_downtime_seconds_bucket{le="0.001048576"} 0
omega_election_downtime_seconds_bucket{le="0.002097152"} 0
omega_election_downtime_seconds_bucket{le="0.004194304"} 0
omega_election_downtime_seconds_bucket{le="0.008388608"} 0
omega_election_downtime_seconds_bucket{le="0.016777216"} 0
omega_election_downtime_seconds_bucket{le="0.033554432"} 0
omega_election_downtime_seconds_bucket{le="0.067108864"} 0
omega_election_downtime_seconds_bucket{le="0.134217728"} 0
omega_election_downtime_seconds_bucket{le="0.268435456"} 1
omega_election_downtime_seconds_bucket{le="+Inf"} 1
omega_election_downtime_seconds_sum 0.2
omega_election_downtime_seconds_count 1
# TYPE omega_decision_latency_seconds histogram
omega_decision_latency_seconds_bucket{le="1e-09"} 0
omega_decision_latency_seconds_bucket{le="2e-09"} 0
omega_decision_latency_seconds_bucket{le="4e-09"} 0
omega_decision_latency_seconds_bucket{le="8e-09"} 0
omega_decision_latency_seconds_bucket{le="1.6e-08"} 0
omega_decision_latency_seconds_bucket{le="3.2e-08"} 0
omega_decision_latency_seconds_bucket{le="6.4e-08"} 0
omega_decision_latency_seconds_bucket{le="1.28e-07"} 0
omega_decision_latency_seconds_bucket{le="2.56e-07"} 0
omega_decision_latency_seconds_bucket{le="5.12e-07"} 0
omega_decision_latency_seconds_bucket{le="1.024e-06"} 0
omega_decision_latency_seconds_bucket{le="2.048e-06"} 0
omega_decision_latency_seconds_bucket{le="4.096e-06"} 0
omega_decision_latency_seconds_bucket{le="8.192e-06"} 0
omega_decision_latency_seconds_bucket{le="1.6384e-05"} 0
omega_decision_latency_seconds_bucket{le="3.2768e-05"} 0
omega_decision_latency_seconds_bucket{le="6.5536e-05"} 0
omega_decision_latency_seconds_bucket{le="0.000131072"} 0
omega_decision_latency_seconds_bucket{le="0.000262144"} 0
omega_decision_latency_seconds_bucket{le="0.000524288"} 0
omega_decision_latency_seconds_bucket{le="0.001048576"} 2
omega_decision_latency_seconds_bucket{le="0.002097152"} 2
omega_decision_latency_seconds_bucket{le="0.004194304"} 3
omega_decision_latency_seconds_bucket{le="+Inf"} 3
omega_decision_latency_seconds_sum 0.005
omega_decision_latency_seconds_count 3
# TYPE omega_heartbeat_interarrival_seconds histogram
omega_heartbeat_interarrival_seconds_bucket{le="1e-09"} 0
omega_heartbeat_interarrival_seconds_bucket{le="2e-09"} 0
omega_heartbeat_interarrival_seconds_bucket{le="4e-09"} 0
omega_heartbeat_interarrival_seconds_bucket{le="8e-09"} 0
omega_heartbeat_interarrival_seconds_bucket{le="1.6e-08"} 0
omega_heartbeat_interarrival_seconds_bucket{le="3.2e-08"} 0
omega_heartbeat_interarrival_seconds_bucket{le="6.4e-08"} 0
omega_heartbeat_interarrival_seconds_bucket{le="1.28e-07"} 0
omega_heartbeat_interarrival_seconds_bucket{le="2.56e-07"} 0
omega_heartbeat_interarrival_seconds_bucket{le="5.12e-07"} 0
omega_heartbeat_interarrival_seconds_bucket{le="1.024e-06"} 0
omega_heartbeat_interarrival_seconds_bucket{le="2.048e-06"} 0
omega_heartbeat_interarrival_seconds_bucket{le="4.096e-06"} 0
omega_heartbeat_interarrival_seconds_bucket{le="8.192e-06"} 0
omega_heartbeat_interarrival_seconds_bucket{le="1.6384e-05"} 0
omega_heartbeat_interarrival_seconds_bucket{le="3.2768e-05"} 0
omega_heartbeat_interarrival_seconds_bucket{le="6.5536e-05"} 0
omega_heartbeat_interarrival_seconds_bucket{le="0.000131072"} 0
omega_heartbeat_interarrival_seconds_bucket{le="0.000262144"} 0
omega_heartbeat_interarrival_seconds_bucket{le="0.000524288"} 0
omega_heartbeat_interarrival_seconds_bucket{le="0.001048576"} 0
omega_heartbeat_interarrival_seconds_bucket{le="0.002097152"} 0
omega_heartbeat_interarrival_seconds_bucket{le="0.004194304"} 0
omega_heartbeat_interarrival_seconds_bucket{le="0.008388608"} 0
omega_heartbeat_interarrival_seconds_bucket{le="0.016777216"} 0
omega_heartbeat_interarrival_seconds_bucket{le="0.033554432"} 0
omega_heartbeat_interarrival_seconds_bucket{le="0.067108864"} 0
omega_heartbeat_interarrival_seconds_bucket{le="0.134217728"} 0
omega_heartbeat_interarrival_seconds_bucket{le="0.268435456"} 1
omega_heartbeat_interarrival_seconds_bucket{le="+Inf"} 1
omega_heartbeat_interarrival_seconds_sum 0.25
omega_heartbeat_interarrival_seconds_count 1
# TYPE link_flush_frames histogram
link_flush_frames_bucket{le="1"} 0
link_flush_frames_bucket{le="2"} 0
link_flush_frames_bucket{le="4"} 1
link_flush_frames_bucket{le="+Inf"} 1
link_flush_frames_sum 3
link_flush_frames_count 1
# TYPE link_flush_bytes histogram
link_flush_bytes_bucket{le="1"} 0
link_flush_bytes_bucket{le="2"} 0
link_flush_bytes_bucket{le="4"} 0
link_flush_bytes_bucket{le="8"} 0
link_flush_bytes_bucket{le="16"} 0
link_flush_bytes_bucket{le="32"} 0
link_flush_bytes_bucket{le="64"} 0
link_flush_bytes_bucket{le="128"} 0
link_flush_bytes_bucket{le="256"} 1
link_flush_bytes_bucket{le="+Inf"} 1
link_flush_bytes_sum 200
link_flush_bytes_count 1
# TYPE wal_fsync_seconds histogram
wal_fsync_seconds_bucket{le="1e-09"} 0
wal_fsync_seconds_bucket{le="2e-09"} 0
wal_fsync_seconds_bucket{le="4e-09"} 0
wal_fsync_seconds_bucket{le="8e-09"} 0
wal_fsync_seconds_bucket{le="1.6e-08"} 0
wal_fsync_seconds_bucket{le="3.2e-08"} 0
wal_fsync_seconds_bucket{le="6.4e-08"} 0
wal_fsync_seconds_bucket{le="1.28e-07"} 0
wal_fsync_seconds_bucket{le="2.56e-07"} 0
wal_fsync_seconds_bucket{le="5.12e-07"} 0
wal_fsync_seconds_bucket{le="1.024e-06"} 0
wal_fsync_seconds_bucket{le="2.048e-06"} 0
wal_fsync_seconds_bucket{le="4.096e-06"} 0
wal_fsync_seconds_bucket{le="8.192e-06"} 0
wal_fsync_seconds_bucket{le="1.6384e-05"} 0
wal_fsync_seconds_bucket{le="3.2768e-05"} 0
wal_fsync_seconds_bucket{le="6.5536e-05"} 0
wal_fsync_seconds_bucket{le="0.000131072"} 0
wal_fsync_seconds_bucket{le="0.000262144"} 0
wal_fsync_seconds_bucket{le="0.000524288"} 1
wal_fsync_seconds_bucket{le="+Inf"} 1
wal_fsync_seconds_sum 0.0005
wal_fsync_seconds_count 1
# TYPE wal_append_bytes histogram
wal_append_bytes_bucket{le="1"} 0
wal_append_bytes_bucket{le="2"} 0
wal_append_bytes_bucket{le="4"} 0
wal_append_bytes_bucket{le="8"} 0
wal_append_bytes_bucket{le="16"} 0
wal_append_bytes_bucket{le="32"} 0
wal_append_bytes_bucket{le="64"} 1
wal_append_bytes_bucket{le="+Inf"} 1
wal_append_bytes_sum 48
wal_append_bytes_count 1
# TYPE wal_recovery_seconds histogram
wal_recovery_seconds_bucket{le="1e-09"} 0
wal_recovery_seconds_bucket{le="2e-09"} 0
wal_recovery_seconds_bucket{le="4e-09"} 0
wal_recovery_seconds_bucket{le="8e-09"} 0
wal_recovery_seconds_bucket{le="1.6e-08"} 0
wal_recovery_seconds_bucket{le="3.2e-08"} 0
wal_recovery_seconds_bucket{le="6.4e-08"} 0
wal_recovery_seconds_bucket{le="1.28e-07"} 0
wal_recovery_seconds_bucket{le="2.56e-07"} 0
wal_recovery_seconds_bucket{le="5.12e-07"} 0
wal_recovery_seconds_bucket{le="1.024e-06"} 0
wal_recovery_seconds_bucket{le="2.048e-06"} 0
wal_recovery_seconds_bucket{le="4.096e-06"} 0
wal_recovery_seconds_bucket{le="8.192e-06"} 0
wal_recovery_seconds_bucket{le="1.6384e-05"} 0
wal_recovery_seconds_bucket{le="3.2768e-05"} 0
wal_recovery_seconds_bucket{le="6.5536e-05"} 0
wal_recovery_seconds_bucket{le="0.000131072"} 0
wal_recovery_seconds_bucket{le="0.000262144"} 0
wal_recovery_seconds_bucket{le="0.000524288"} 0
wal_recovery_seconds_bucket{le="0.001048576"} 0
wal_recovery_seconds_bucket{le="0.002097152"} 0
wal_recovery_seconds_bucket{le="0.004194304"} 0
wal_recovery_seconds_bucket{le="0.008388608"} 0
wal_recovery_seconds_bucket{le="0.016777216"} 0
wal_recovery_seconds_bucket{le="0.033554432"} 1
wal_recovery_seconds_bucket{le="+Inf"} 1
wal_recovery_seconds_sum 0.02
wal_recovery_seconds_count 1
`
