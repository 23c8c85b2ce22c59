// Package check turns the paper's "eventually forever" theorem statements
// into machine-checkable predicates over finite executions, and Explore
// judges a list of fault schedules by them.
//
// A finite run cannot prove an eventual property, so the checkers use the
// standard reproduction compromise: they verify that the property holds
// from some instant up to the run's horizon and report that instant, and
// the experiment harness runs long past the expected stabilization point
// (GST plus timeout-adaptation slack) over many seeds.
package check

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/detector"
	"repro/internal/faultline"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// OmegaInput bundles what the Omega checker needs about a finished run.
type OmegaInput struct {
	// Histories holds each process's leader-output history, indexed by id.
	Histories []*detector.History
	// Crashed maps crashed process ids to their crash instants.
	Crashed map[node.ID]sim.Time
	// Horizon is the virtual end time of the run.
	Horizon sim.Time
}

// OmegaReport is the verdict on the Omega property for one run.
type OmegaReport struct {
	// Holds is true when every correct process's final output is the
	// same correct process.
	Holds bool
	// Leader is the agreed leader when Holds.
	Leader node.ID
	// StabilizedAt is the latest leader change at any correct process —
	// from then until the horizon the outputs were simultaneously stable.
	StabilizedAt sim.Time
	// Changes is the total number of leader transitions across correct
	// processes (a churn measure).
	Changes int
	// Reason explains a failed check.
	Reason string
}

// Omega evaluates the Omega property on a finished run. Changes and
// StabilizedAt count every correct process, whether or not the property
// holds.
func Omega(in OmegaInput) OmegaReport {
	var rep OmegaReport
	leader := node.None
	for id, h := range in.Histories {
		if _, crashed := in.Crashed[node.ID(id)]; crashed {
			continue
		}
		cur := h.Current()
		at, _ := h.StableSince()
		rep.Changes += h.NumChanges()
		if at > rep.StabilizedAt {
			rep.StabilizedAt = at
		}
		if leader == node.None {
			leader = cur
		} else if cur != leader && rep.Reason == "" {
			rep.Reason = fmt.Sprintf("p%d trusts p%v while another correct process trusts p%v", id, cur, leader)
		}
	}
	if rep.Reason != "" {
		return rep
	}
	if leader == node.None {
		rep.Reason = "no correct process"
		return rep
	}
	if _, crashed := in.Crashed[leader]; crashed {
		rep.Reason = fmt.Sprintf("agreed leader p%v is crashed", leader)
		return rep
	}
	rep.Holds = true
	rep.Leader = leader
	return rep
}

// CommEffReport is the verdict on the communication-efficiency property.
type CommEffReport struct {
	// Efficient is true when, from CheckFrom to the horizon, only the
	// agreed leader sent messages.
	Efficient bool
	// QuietSince is the earliest instant after which only the leader
	// sent (may exceed the horizon's CheckFrom when inefficient).
	QuietSince sim.Time
	// Senders is the set of processes that sent in [CheckFrom, horizon].
	Senders []int
	// LinksUsed is the number of directed links carrying traffic in
	// [CheckFrom, horizon].
	LinksUsed int
	// MessagesPerPeriod is the average number of messages per period in
	// [CheckFrom, horizon].
	MessagesPerPeriod float64
}

// CommEff evaluates communication efficiency over the tail window
// [checkFrom, horizon) of a finished run, for the given agreed leader.
// msgs is how many messages the window holds: stats.TotalSent() read at
// its two edges by whoever ran it (scenario.System.RunWindow), so the
// window is fixed before the run reaches it.
func CommEff(stats *metrics.MessageStats, leader node.ID, checkFrom, horizon sim.Time, period time.Duration, msgs uint64) CommEffReport {
	rep := CommEffReport{
		QuietSince: stats.QuietSince(int(leader)),
		Senders:    stats.SendersSince(checkFrom),
		LinksUsed:  stats.LinksUsedSince(checkFrom),
	}
	sort.Ints(rep.Senders)
	rep.Efficient = rep.QuietSince <= checkFrom
	if horizon > checkFrom && period > 0 {
		windows := float64(horizon.Sub(checkFrom)) / float64(period)
		rep.MessagesPerPeriod = float64(msgs) / windows
	}
	return rep
}

// AgreementAt reports whether all correct processes agreed on one correct
// leader at instant t (useful for plotting convergence curves).
func AgreementAt(in OmegaInput, t sim.Time) (node.ID, bool) {
	leader := node.None
	for id, h := range in.Histories {
		if _, crashed := in.Crashed[node.ID(id)]; crashed {
			continue
		}
		cur := h.LeaderAt(t)
		if leader == node.None {
			leader = cur
		} else if cur != leader {
			return node.None, false
		}
	}
	if leader == node.None {
		return node.None, false
	}
	if crashAt, crashed := in.Crashed[leader]; crashed && crashAt <= t {
		return node.None, false
	}
	return leader, true
}

// ConvergenceTime returns the earliest instant from which agreement on a
// single correct leader held continuously to the horizon, and whether such
// an instant exists. It is the empirical "stabilization time" reported by
// experiments E3/E4.
func ConvergenceTime(in OmegaInput) (sim.Time, bool) {
	rep := Omega(in)
	if !rep.Holds {
		return 0, false
	}
	// The outputs are piecewise constant, so agreement holds from the
	// last change onward; verify it held at that instant too.
	if _, ok := AgreementAt(in, rep.StabilizedAt); !ok {
		return 0, false
	}
	return rep.StabilizedAt, true
}

// Failure is a schedule on which a predicate of Explore did not hold.
type Failure struct {
	Schedule faultline.Schedule
	Reason   string
}

// String prints the failure with the schedule's byte form, which replays it.
func (f Failure) String() string {
	return fmt.Sprintf("%x [%v]: %s", f.Schedule.Bytes(), f.Schedule, f.Reason)
}

// Explore runs run on every schedule of space, over every core through
// sweep.Map, and judges each result by the predicates, each of which
// returns "" when it holds and why not when it does not. It returns, in
// space order, a Failure for each schedule that some predicate failed on.
func Explore[R any](space []faultline.Schedule, run func(faultline.Schedule) R, preds ...func(R) string) (out []Failure) {
	reasons := sweep.Map(sweep.New(0), len(space), func(i int) string {
		r := run(space[i])
		for _, pred := range preds {
			if why := pred(r); why != "" {
				return why
			}
		}
		return ""
	})
	for i, why := range reasons {
		if why != "" {
			out = append(out, Failure{Schedule: space[i], Reason: why})
		}
	}
	return out
}
