package experiments

import (
	"fmt"
	"io"
)

// Renderable is anything the suite can print (Table or Series).
type Renderable interface {
	Render() string
}

// Item names one experiment of the suite.
type Item struct {
	ID   string
	Name string
	Run  func(Opts) Renderable
}

// Suite lists every experiment in DESIGN.md §4 order.
func Suite() []Item {
	return []Item{
		{"E1", "steady-state messages per η", func(o Opts) Renderable { return E1SteadyStateMessages(o) }},
		{"E2", "convergence time series", func(o Opts) Renderable { return E2ConvergenceSeries(o) }},
		{"E3", "stabilization vs GST", func(o Opts) Renderable { return E3StabilizationVsGST(o) }},
		{"E4", "leader-crash recovery", func(o Opts) Renderable { return E4CrashRecovery(o) }},
		{"E5", "links used forever", func(o Opts) Renderable { return E5LinksUsed(o) }},
		{"E6", "single-decree consensus cost", func(o Opts) Renderable { return E6ConsensusCost(o) }},
		{"E7", "repeated consensus cost", func(o Opts) Renderable { return E7RepeatedConsensus(o) }},
		{"E8", "assumption boundary matrix", func(o Opts) Renderable { return E8AssumptionMatrix(o) }},
		{"E9", "core-algorithm ablations", func(o Opts) Renderable { return E9Ablations(o) }},
		{"E10", "relaying: timely paths suffice", func(o Opts) Renderable { return E10RelayedPaths(o) }},
		{"E11", "◊-f-source boundary sweep", func(o Opts) Renderable { return E11FSourceBoundary(o) }},
		{"E12", "replicated-log commit index", func(o Opts) Renderable { return E12CommitIndex(o) }},
		{"E13", "lossy partition and heal", func(o Opts) Renderable { return E13PartitionHeal(o) }},
		{"E14", "leader-lease local reads", func(o Opts) Renderable { return E14LeaseReads(o) }},
	}
}

// RunAll executes every experiment and writes the rendered results to w.
func RunAll(w io.Writer, o Opts) error {
	for _, item := range Suite() {
		if _, err := fmt.Fprintf(w, "\n%s\n", item.Run(o).Render()); err != nil {
			return err
		}
	}
	return nil
}

// RunOne executes a single experiment by id (e.g. "E3").
func RunOne(w io.Writer, id string, o Opts) error {
	for _, item := range Suite() {
		if item.ID == id {
			_, err := fmt.Fprintf(w, "\n%s\n", item.Run(o).Render())
			return err
		}
	}
	return fmt.Errorf("experiments: unknown experiment %q", id)
}

// RunAllMarkdown executes every experiment and writes markdown sections to
// w (the format EXPERIMENTS.md records).
func RunAllMarkdown(w io.Writer, o Opts) error {
	for _, item := range Suite() {
		md, ok := item.Run(o).(Markdowner)
		if !ok {
			return fmt.Errorf("experiments: %s result cannot render markdown", item.ID)
		}
		if _, err := fmt.Fprintf(w, "%s\n", md.Markdown()); err != nil {
			return err
		}
	}
	return nil
}
