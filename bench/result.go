package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// measurement is one workload run's outcome.
type measurement struct {
	Attempted  int64
	Failed     int64
	Violations []string // correctness: any entry fails the run
	Unstable   []string // stability guards: any entry invalidates the run
	E2E        map[string]float64
	Layer      map[string]float64 // traced pass only
	Budget     []budgetRow        // traced pass only: us per op, rows sum to the traced cpu_us_per_op
	Digest     string             // simulated workloads: the execution's deterministic fingerprint
}

type budgetRow struct {
	Name string
	US   float64
}

func newMeasurement() *measurement {
	return &measurement{E2E: map[string]float64{}, Layer: map[string]float64{}}
}

func (m *measurement) unstable(format string, args ...any) {
	m.Unstable = append(m.Unstable, fmt.Sprintf(format, args...))
}

// resultLine is the last line of a run's standard output: the contract
// between this program and whatever drives it.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// table is the pass's metric definitions and this run's values for them.
func (m *measurement) table(traced bool) ([]metricDef, map[string]float64) {
	if traced {
		return perLayer, m.Layer
	}
	return endToEnd, m.E2E
}

func (m *measurement) line(traced bool) resultLine {
	defs, vals := m.table(traced)
	out := resultLine{Correct: len(m.Violations) == 0, Attempted: m.Attempted, Failed: m.Failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	return out
}

// print writes every metric by name with its unit, then the budget
// table, for a reader; the machine-readable line comes after.
func (m *measurement) print(w io.Writer, name string, traced bool) {
	defs, vals := m.table(traced)
	fmt.Fprintf(w, "%s: attempted %d, failed %d\n", name, m.Attempted, m.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %16.6f %s\n", d.Name, vals[d.Name], d.Unit)
	}
	if !traced {
		// The host's speed as much as the program's (hostSpeed): shown to
		// a reader here, reported by name on the traced pass.
		fmt.Fprintf(w, "  %-32s %16.6f %s (not gated)\n", "goodput_ops_per_s", vals["goodput_ops_per_s"], "1/s")
		fmt.Fprintf(w, "  %-32s %16.6f %s (not gated)\n", "cpu_us_per_op", vals["cpu_us_per_op"], "us")
	}
	if len(m.Budget) > 0 {
		fmt.Fprintf(w, "  us_per_cmd budget (%s):\n", name)
		for _, r := range m.Budget {
			fmt.Fprintf(w, "    %-34s %10.3f us\n", r.Name, r.US)
		}
	}
	for _, s := range m.Violations {
		fmt.Fprintf(w, "  INCORRECT: %s\n", s)
	}
	for _, s := range m.Unstable {
		fmt.Fprintf(w, "  unstable: %s\n", s)
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings and finite floats always marshal
	}
	return string(b)
}
