package telemetry

import (
	"fmt"
	"io"
	"slices"
)

// promHist writes one histogram series (cumulative le buckets, sum, count)
// in Prometheus exposition format, without the TYPE header. A seconds
// series scales its nanoseconds to seconds, a count series exports raw.
// Power-of-two buckets export exactly: every observation in bucket b is
// < 2^b, so the cumulative count at le = 2^b is precise.
func promHist(w io.Writer, name string, u unit, s HistSnapshot) {
	edge := func(b int) string { return fmt.Sprintf("%g", float64(uint64(1)<<uint(b))/1e9) }
	sum := fmt.Sprintf("%g", s.Sum.Seconds())
	if u == count {
		edge = func(b int) string { return fmt.Sprintf("%d", uint64(1)<<uint(b)) }
		sum = fmt.Sprintf("%d", int64(s.Sum))
	}
	var cum uint64
	top := 0
	for b, c := range s.Buckets {
		if c > 0 {
			top = b
		}
	}
	for b := 0; b <= top; b++ {
		cum += s.Buckets[b]
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, edge(b), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	fmt.Fprintf(w, "%s_sum %s\n", name, sum)
	fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
}

// WritePrometheus writes the collector's full state in Prometheus text
// exposition format: message counters (from the attached MessageStats),
// the quiescence and election gauges, the read-path probes and every row
// of the series table. Kinds are listed by name, not in the first-send
// order MessageStats keeps, so two runs' expositions diff line by line.
func (c *Collector) WritePrometheus(w io.Writer) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	if st := c.stats; st != nil {
		counter("omega_sent_total", "Messages handed to the links.", st.TotalSent())
		counter("omega_delivered_total", "Messages delivered.", st.Delivered())
		counter("omega_dropped_total", "Messages lost in transit.", st.Dropped())
		counter("omega_wire_bytes_total", "Encoded bytes handed to the links.", st.WireBytes())
		fmt.Fprintf(w, "# HELP omega_sent_kind_total Messages sent per kind.\n# TYPE omega_sent_kind_total counter\n")
		kinds := st.Kinds()
		slices.Sort(kinds)
		for _, kind := range kinds {
			fmt.Fprintf(w, "omega_sent_kind_total{kind=%q} %d\n", kind, st.KindCount(kind))
		}
		fmt.Fprintf(w, "# HELP omega_sent_by_total Messages sent per process.\n# TYPE omega_sent_by_total counter\n")
		for p := 0; p < c.n; p++ {
			fmt.Fprintf(w, "omega_sent_by_total{process=\"%d\"} %d\n", p, st.SentBy(p))
		}
	}

	// Quiescence: the paper's steady-state claim, as scrapeable gauges.
	// After stabilization active_links must read n-1 and
	// non_leader_sends_total must stop moving.
	gauge("omega_active_links",
		"Directed links that carried a message within the quiescence window.",
		float64(c.ActiveLinks()))
	gauge("omega_quiescence_window_seconds",
		"Sliding window used by omega_active_links.", QuiescenceWindow.Seconds())
	gauge("omega_non_leader_sends_total",
		"Messages sent by processes other than the stable leader.",
		float64(c.NonLeaderSends()))

	leader, agreed := c.Leader()
	l := float64(-1)
	if agreed {
		l = float64(leader)
	}
	gauge("omega_leader", "Cluster-wide agreed leader id, -1 while disputed.", l)
	sinceS := float64(-1)
	if since, ok := c.TimeSinceLastElection(); ok {
		sinceS = since.Seconds()
	}
	gauge("omega_time_since_last_election_seconds",
		"How long the current agreement has held, -1 before the first.", sinceS)
	counter("omega_elections_total", "Times cluster-wide agreement formed.", c.Elections())
	counter("omega_leader_changes_total", "Per-process leader-output transitions.", c.LeaderChanges())
	counter("omega_decides_total", "Consensus decisions learned across watched recorders.", c.Decides())

	// Read path: lease occupancy and the local/fallback split. Local reads
	// cost zero consensus messages; their ratio against fallbacks is the
	// lease's headline number.
	held, local, fallback := c.Lease()
	gauge("rsm_lease_held",
		"Watched processes currently holding the leader lease (0 or 1 when healthy).",
		float64(held))
	counter("rsm_reads_local_total",
		"Reads served locally under a lease, with zero consensus messages.", local)
	counter("rsm_reads_fallback_total",
		"Reads confirmed by a round of grants that a majority acked.", fallback)

	for s, row := range seriesTable {
		fmt.Fprintf(w, "# TYPE %s histogram\n", row.name)
		promHist(w, row.name, row.unit, c.Hist(Series(s)))
	}
}
