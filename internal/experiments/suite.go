package experiments

import (
	"fmt"
	"io"
)

// Item names one experiment of the suite; Run renders its result as a
// markdown section, the format EXPERIMENTS.md records.
type Item struct {
	ID   string
	Name string
	Run  func(Opts) string
}

// section adapts an experiment to Item.Run.
func section[R interface{ Markdown() string }](run func(Opts) R) func(Opts) string {
	return func(o Opts) string { return run(o).Markdown() }
}

// Suite lists every experiment in DESIGN.md §4 order.
func Suite() []Item {
	return []Item{
		{"E1", "steady-state messages per η", section(E1SteadyStateMessages)},
		{"E2", "convergence time series", section(E2ConvergenceSeries)},
		{"E3", "stabilization vs GST", section(E3StabilizationVsGST)},
		{"E4", "leader-crash recovery", section(E4CrashRecovery)},
		{"E5", "links used forever", section(E5LinksUsed)},
		{"E6", "single-decree consensus cost", section(E6ConsensusCost)},
		{"E7", "repeated consensus cost", section(E7RepeatedConsensus)},
		{"E8", "assumption boundary matrix", section(E8AssumptionMatrix)},
		{"E9", "core-algorithm ablations", section(E9Ablations)},
		{"E10", "relaying: timely paths suffice", section(E10RelayedPaths)},
		{"E11", "◊-f-source boundary sweep", section(E11FSourceBoundary)},
		{"E12", "replicated-log commit index", section(E12CommitIndex)},
		{"E13", "lossy partition and heal", section(E13PartitionHeal)},
		{"E14", "leader-lease local reads", section(E14LeaseReads)},
	}
}

// RunAll executes every experiment and writes its markdown section to w.
func RunAll(w io.Writer, o Opts) error {
	for _, item := range Suite() {
		if _, err := fmt.Fprintf(w, "%s\n", item.Run(o)); err != nil {
			return err
		}
	}
	return nil
}

// RunOne executes a single experiment by id (e.g. "E3") and writes its
// markdown section to w.
func RunOne(w io.Writer, id string, o Opts) error {
	for _, item := range Suite() {
		if item.ID == id {
			_, err := fmt.Fprintf(w, "%s\n", item.Run(o))
			return err
		}
	}
	return fmt.Errorf("experiments: unknown experiment %q", id)
}
