package telemetry

import (
	"encoding/json"
	"os"
)

// HistJSON is one histogram snapshot in the offline-diffable dump format.
type HistJSON struct {
	Count   uint64   `json:"count"`
	SumNS   int64    `json:"sum_ns"`
	MaxNS   int64    `json:"max_ns"`
	P50NS   int64    `json:"p50_ns"`
	P90NS   int64    `json:"p90_ns"`
	P99NS   int64    `json:"p99_ns"`
	Buckets []uint64 `json:"buckets"` // power-of-two, trailing zeros trimmed
}

func histJSON(s HistSnapshot) HistJSON {
	top := 0
	for b, c := range s.Buckets {
		if c > 0 {
			top = b + 1
		}
	}
	return HistJSON{
		Count:   s.Count,
		SumNS:   int64(s.Sum),
		MaxNS:   int64(s.Max),
		P50NS:   int64(s.Quantile(0.50)),
		P90NS:   int64(s.Quantile(0.90)),
		P99NS:   int64(s.Quantile(0.99)),
		Buckets: append([]uint64(nil), s.Buckets[:top]...),
	}
}

// Dump is the merged metrics+histogram snapshot cmd/chaossoak and
// cmd/wireload write with -snapshot-json, shaped for diffing one run
// against another: stable field order, counts and nanoseconds only (no
// wall-clock timestamps).
type Dump struct {
	N              int                 `json:"n"`
	Sent           uint64              `json:"sent"`
	Delivered      uint64              `json:"delivered"`
	Dropped        uint64              `json:"dropped"`
	WireBytes      uint64              `json:"wire_bytes"`
	SentByKind     map[string]uint64   `json:"sent_by_kind"`
	SentByProcess  []uint64            `json:"sent_by_process"`
	Leader         int                 `json:"leader"`
	Elections      uint64              `json:"elections"`
	LeaderChanges  uint64              `json:"leader_changes"`
	Decides        uint64              `json:"decides"`
	ActiveLinks    int                 `json:"active_links"`
	NonLeaderSends uint64              `json:"non_leader_sends"`
	WindowNS       int64               `json:"quiescence_window_ns"`
	LeaseHolders   int                 `json:"lease_holders"`
	LocalReads     uint64              `json:"reads_local"`
	FallbackReads  uint64              `json:"reads_fallback"`
	Histograms     map[string]HistJSON `json:"histograms"`
}

// Dump assembles the current snapshot.
func (c *Collector) Dump() Dump {
	d := Dump{
		N:              c.n,
		Leader:         -1,
		Elections:      c.Elections(),
		LeaderChanges:  c.LeaderChanges(),
		Decides:        c.Decides(),
		ActiveLinks:    c.ActiveLinks(),
		NonLeaderSends: c.NonLeaderSends(),
		WindowNS:       int64(QuiescenceWindow),
		SentByKind:     map[string]uint64{},
		Histograms:     make(map[string]HistJSON, numSeries),
	}
	for s, row := range seriesTable {
		// For a count series the "ns" fields hold frames or bytes.
		d.Histograms[row.name] = histJSON(c.Hist(Series(s)))
	}
	d.LeaseHolders, d.LocalReads, d.FallbackReads = c.Lease()
	if leader, ok := c.Leader(); ok {
		d.Leader = int(leader)
	}
	if st := c.stats; st != nil {
		d.Sent = st.TotalSent()
		d.Delivered = st.Delivered()
		d.Dropped = st.Dropped()
		d.WireBytes = st.WireBytes()
		for _, kind := range st.Kinds() {
			d.SentByKind[kind] = st.KindCount(kind)
		}
		d.SentByProcess = make([]uint64, c.n)
		for p := 0; p < c.n; p++ {
			d.SentByProcess[p] = st.SentBy(p)
		}
	}
	return d
}

// WriteJSON writes the snapshot to path, indented, for offline diffing.
func (c *Collector) WriteJSON(path string) error {
	data, err := json.MarshalIndent(c.Dump(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
