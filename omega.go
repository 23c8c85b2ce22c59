// Package repro is a reproduction of "Communication-efficient leader
// election and consensus with limited link synchrony" (Aguilera,
// Delporte-Gallet, Fauconnier, Toueg — PODC 2004).
//
// The repository implements, from scratch and on the standard library
// only:
//
//   - the paper's communication-efficient Omega failure detector
//     (internal/core): eventual leader election in which, after
//     stabilization, only the leader sends messages — n−1 links in use
//     forever — under reliable links and a single eventually-timely
//     source;
//   - the weak-assumption gossiped-counter Omega and the classic
//     all-to-all heartbeat detector as baselines (internal/detector/...);
//   - leader-driven consensus: an Omega-steered Paxos replicated log,
//     whose first instance is single-decree consensus and whose steady
//     state is Θ(n) messages per decision, against a rotating-coordinator
//     Θ(n²) baseline (internal/consensus/...);
//   - the substrates they need: a deterministic discrete-event simulator,
//     link models with GST-style partial synchrony, a process runtime,
//     metrics, tracing, property checkers, a binary wire codec, and a
//     live TCP runtime.
//
// This file is the front door: build and run a scenario, check the
// paper's properties on it, or regenerate the full experiment suite. See
// DESIGN.md for the system inventory and EXPERIMENTS.md for results.
package repro

import (
	"io"

	"repro/internal/check"
	"repro/internal/experiments"
	"repro/internal/scenario"
)

// Re-exported scenario vocabulary. A Scenario pairs a leader-election
// algorithm with a link-synchrony regime and a fault schedule (DESIGN.md
// §10); Build wires it onto the deterministic simulator.
type (
	// Scenario configures a runnable system (see scenario.Config). Its
	// Source is the ◊-source's id as given, p0 included.
	Scenario = scenario.Config
	// System is a built scenario: world, detectors, checkers.
	System = scenario.System
	// Algorithm selects an Omega implementation.
	Algorithm = scenario.Algorithm
	// Regime selects a link-synchrony configuration.
	Regime = scenario.Regime
	// OmegaReport is the Omega-property verdict for a run.
	OmegaReport = check.OmegaReport
	// CommEffReport is the communication-efficiency verdict for a run.
	CommEffReport = check.CommEffReport
	// ExperimentOpts scales the experiment suite.
	ExperimentOpts = experiments.Opts
)

// Algorithms and regimes.
const (
	// AlgoCore is the paper's communication-efficient Omega.
	AlgoCore = scenario.AlgoCore
	// AlgoAllToAll is the classic all-to-all heartbeat baseline.
	AlgoAllToAll = scenario.AlgoAllToAll
	// AlgoSource is the gossiped-counter weak-assumption baseline.
	AlgoSource = scenario.AlgoSource

	// RegimeAllTimely: every link timely from time zero.
	RegimeAllTimely = scenario.RegimeAllTimely
	// RegimeAllET: every link eventually timely (GST).
	RegimeAllET = scenario.RegimeAllET
	// RegimeSourceReliable: one ◊-source, reliable asynchronous rest.
	RegimeSourceReliable = scenario.RegimeSourceReliable
	// RegimeSourceFairLossy: one ◊-source, fair-lossy rest.
	RegimeSourceFairLossy = scenario.RegimeSourceFairLossy
	// RegimeLossy: arbitrary loss everywhere.
	RegimeLossy = scenario.RegimeLossy
)

// Build constructs a runnable system from a scenario.
func Build(cfg Scenario) (*System, error) { return scenario.Build(cfg) }

// RunExperiments regenerates the full E1–E14 suite (DESIGN.md §4),
// writing rendered tables and figures to w.
func RunExperiments(w io.Writer, opts ExperimentOpts) error {
	return experiments.RunAll(w, opts)
}

// RunExperiment regenerates a single experiment by id, e.g. "E3".
func RunExperiment(w io.Writer, id string, opts ExperimentOpts) error {
	return experiments.RunOne(w, id, opts)
}
