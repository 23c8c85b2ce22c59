package experiments

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/faultline"
	"repro/internal/scenario"
)

// omegaAlgos are the three Omega implementations every message-cost
// experiment compares.
var omegaAlgos = []scenario.Algorithm{
	scenario.AlgoCore,
	scenario.AlgoAllToAll,
	scenario.AlgoSource,
}

// E1SteadyStateMessages regenerates Table 1: per-η message cost after
// stabilization, for each algorithm across system sizes. The paper's
// claim: the core algorithm converges to exactly n−1 messages per η (one
// leader broadcast), the baselines stay at n(n−1).
func E1SteadyStateMessages(o Opts) Table {
	o.fill()
	sizes := []int{3, 5, 10, 20, 40}
	horizon, tail := 400, 100
	if o.Quick {
		sizes = []int{3, 5, 10}
		horizon, tail = 150, 50
	}
	t := Table{
		ID:    "E1",
		Title: "steady-state messages per η (Table 1)",
		Note: fmt.Sprintf("all links eventually timely, GST=20η, measured over the final %dη of %dη; predictions: core n-1, baselines n(n-1)",
			tail, horizon),
		Columns: []string{"n", "algorithm", "msgs/η", "predicted", "senders"},
	}
	cells := sizeAlgoCells(sizes)
	type run struct {
		rate    float64
		senders int
	}
	res := sweepCells(o, cells, func(c sizeAlgo, seed int) run {
		s := build(scenario.Config{
			N: c.n, Seed: int64(seed), Algorithm: c.algo,
			Regime: scenario.RegimeAllET, Eta: Eta, GST: etaT(20),
		})
		msgs := s.RunWindow(etaT(horizon-tail), etaT(horizon))
		rep := s.CommEffReport(etaT(horizon-tail), msgs)
		return run{rate: rep.MessagesPerPeriod, senders: len(rep.Senders)}
	})
	for ci, c := range cells {
		var rates []float64
		senders := 0
		for _, r := range res[ci] {
			rates = append(rates, r.rate)
			if r.senders > senders {
				senders = r.senders
			}
		}
		predicted := c.n * (c.n - 1)
		if c.algo == scenario.AlgoCore {
			predicted = c.n - 1
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", c.n),
			string(c.algo),
			fmt.Sprintf("%.1f", mean(rates)),
			fmt.Sprintf("%d", predicted),
			fmt.Sprintf("%d", senders),
		})
	}
	return t
}

// sizeAlgo is one (system size, algorithm) sweep cell.
type sizeAlgo struct {
	n    int
	algo scenario.Algorithm
}

// sizeAlgoCells enumerates sizes × omegaAlgos in table-row order.
func sizeAlgoCells(sizes []int) []sizeAlgo {
	cells := make([]sizeAlgo, 0, len(sizes)*len(omegaAlgos))
	for _, n := range sizes {
		for _, algo := range omegaAlgos {
			cells = append(cells, sizeAlgo{n: n, algo: algo})
		}
	}
	return cells
}

// E2ConvergenceSeries regenerates Figure 1: messages per η over time for
// each algorithm, showing the pre-GST spike and the core algorithm's decay
// to a single sender.
func E2ConvergenceSeries(o Opts) Series {
	o.fill()
	n, gstPeriods, horizon := 10, 50, 300
	if o.Quick {
		horizon = 150
	}
	step := 5 // sample every 5η for readable output
	s := Series{
		ID:     "E2",
		Title:  "messages per η over time, n=10, GST=50η (Figure 1)",
		Note:   "all links eventually timely; the core curve decays to n-1=9 per η, baselines plateau at n(n-1)=90",
		XLabel: "t (η)",
		YLabel: "msgs/η",
	}
	type curve struct {
		xs, ys []float64
	}
	curves := sweepEach(o, omegaAlgos, func(algo scenario.Algorithm) curve {
		sys := build(scenario.Config{
			N: n, Seed: 1, Algorithm: algo,
			Regime: scenario.RegimeAllET, Eta: Eta, GST: etaT(gstPeriods),
		})
		// Each point is the sends in [iη, (i+step)η), read at its edges.
		var c curve
		var before uint64 // nothing is sent before time zero
		for i := 0; i+step <= horizon; i += step {
			next := sys.RunTo(etaT(i + step))
			c.xs = append(c.xs, float64(i))
			c.ys = append(c.ys, float64(next-before)/float64(step))
			before = next
		}
		return c
	})
	for ci, algo := range omegaAlgos {
		if s.X == nil {
			s.X = curves[ci].xs
		}
		s.Names = append(s.Names, string(algo))
		s.Y = append(s.Y, curves[ci].ys)
	}
	return s
}

// E3StabilizationVsGST regenerates Figure 2: how the empirical
// stabilization time tracks the (unknown to the algorithm) global
// stabilization time.
func E3StabilizationVsGST(o Opts) Table {
	o.fill()
	gsts := []int{0, 10, 25, 50, 100}
	if o.Quick {
		gsts = []int{0, 25, 50}
	}
	t := Table{
		ID:      "E3",
		Title:   "leader stabilization time vs GST, n=10 (Figure 2)",
		Note:    "all links eventually timely; stabilization = last leader change at any correct process; grows with GST for every algorithm",
		Columns: []string{"GST (η)", "algorithm", "stabilized (mean)", "stabilized (max)", "converged"},
	}
	type cell struct {
		gst  int
		algo scenario.Algorithm
	}
	var cells []cell
	for _, gst := range gsts {
		for _, algo := range omegaAlgos {
			cells = append(cells, cell{gst: gst, algo: algo})
		}
	}
	type run struct {
		at float64
		ok bool
	}
	res := sweepCells(o, cells, func(c cell, seed int) run {
		s := build(scenario.Config{
			N: 10, Seed: int64(seed), Algorithm: c.algo,
			Regime: scenario.RegimeAllET, Eta: Eta, GST: etaT(c.gst),
		})
		s.Run(time.Duration(c.gst)*Eta + 200*Eta)
		at, ok := check.ConvergenceTime(s.OmegaInput())
		return run{at: float64(at) / float64(Eta.Nanoseconds()), ok: ok}
	})
	for ci, c := range cells {
		var times []float64
		converged := 0
		for _, r := range res[ci] {
			if r.ok {
				converged++
				times = append(times, r.at)
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", c.gst),
			string(c.algo),
			fmt.Sprintf("%.0fη", mean(times)),
			fmt.Sprintf("%.0fη", maxOf(times)),
			fmt.Sprintf("%d/%d", converged, o.Seeds),
		})
	}
	return t
}

// E4CrashRecovery regenerates Table 2: time to re-agree on a leader after
// the stable leader crashes.
func E4CrashRecovery(o Opts) Table {
	o.fill()
	sizes := []int{5, 10, 20}
	if o.Quick {
		sizes = []int{5, 10}
	}
	crashAt := etaT(100)
	t := Table{
		ID:      "E4",
		Title:   "re-election latency after leader crash (Table 2)",
		Note:    "all links timely, leader p0 crashes at 100η; latency = last leader change − crash time",
		Columns: []string{"n", "algorithm", "latency (mean)", "latency (max)", "new leader"},
	}
	cells := sizeAlgoCells(sizes)
	type run struct {
		lat float64
		ok  bool
	}
	res := sweepCells(o, cells, func(c sizeAlgo, seed int) run {
		s := build(scenario.Config{
			N: c.n, Seed: int64(seed), Algorithm: c.algo,
			Regime: scenario.RegimeAllTimely, Eta: Eta,
			Schedule: faultline.Schedule{{At: crashAt.Duration(), Op: faultline.OpCrash, From: 0}},
		})
		s.Run(400 * Eta)
		in := s.OmegaInput()
		at, ok := check.ConvergenceTime(in)
		if leader, _ := check.AgreementAt(in, at); !ok || leader == 0 {
			return run{}
		}
		return run{lat: float64(at-crashAt) / float64(time.Millisecond), ok: true}
	})
	for ci, c := range cells {
		var lats []float64
		leaderOK := true
		for _, r := range res[ci] {
			if !r.ok {
				leaderOK = false
				continue
			}
			lats = append(lats, r.lat)
		}
		status := "p1"
		if !leaderOK {
			status = "FAILED"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", c.n),
			string(c.algo),
			fmt.Sprintf("%.1fms", mean(lats)),
			fmt.Sprintf("%.1fms", maxOf(lats)),
			status,
		})
	}
	return t
}

// E5LinksUsed regenerates Figure 3: the number of directed links carrying
// messages forever — the paper's second formulation of communication
// efficiency (n−1 links vs n(n−1)).
func E5LinksUsed(o Opts) Table {
	o.fill()
	sizes := []int{3, 5, 10, 20, 40}
	horizon, tail := 300, 50
	if o.Quick {
		sizes = []int{3, 5, 10}
		horizon, tail = 150, 30
	}
	t := Table{
		ID:      "E5",
		Title:   "directed links used forever (Figure 3)",
		Note:    fmt.Sprintf("all links timely; links counted over the final %dη of %dη", tail, horizon),
		Columns: []string{"n", "algorithm", "links used", "predicted"},
	}
	cells := sizeAlgoCells(sizes)
	links := sweepEach(o, cells, func(c sizeAlgo) int {
		s := build(scenario.Config{
			N: c.n, Seed: 7, Algorithm: c.algo, Regime: scenario.RegimeAllTimely, Eta: Eta,
		})
		s.Run(time.Duration(horizon) * Eta)
		return s.World.Stats.LinksUsedSince(etaT(horizon - tail))
	})
	for ci, c := range cells {
		predicted := c.n * (c.n - 1)
		if c.algo == scenario.AlgoCore {
			predicted = c.n - 1
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", c.n),
			string(c.algo),
			fmt.Sprintf("%d", links[ci]),
			fmt.Sprintf("%d", predicted),
		})
	}
	return t
}
