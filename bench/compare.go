package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compare prints one row per workload and end-to-end metric for two
// -out files (A the base, B the change): both medians, how much worse B
// is in the metric's own direction, the bound, and a verdict. A metric
// whose own repeats spread wider than its bound is unresolved, not
// unchanged. On the simulated workloads the metrics a seed fixes
// (exactOnSim) are held to a bound of 0, traced ones included, when both
// files ran the same seeds. The traced runs' CPU per operation and
// goodput (hostSpeed) are compared too: they are the host's speed as much
// as the program's, so they say something only when the two sets were
// run alternately. It fails on any regression and on a higher failure
// ratio.
func compare(w io.Writer, pathA, pathB string) error {
	a, err := loadRuns(pathA)
	if err != nil {
		return err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return err
	}
	if a.Seconds != b.Seconds {
		return fmt.Errorf("compare: %s measured %gs per run, %s %gs", pathA, a.Seconds, pathB, b.Seconds)
	}
	regressions := 0
	fmt.Fprintf(w, "%-13s %-30s %14s %14s %8s %6s %7s  %s\n", "workload", "metric", "A median", "B median", "worse", "bound", "spread", "verdict")
	for _, wl := range workloads {
		fa, na := failures(a, wl.Name)
		fb, nb := failures(b, wl.Name)
		if na == 0 || nb == 0 {
			continue
		}
		if ratio(fb, nb) > ratio(fa, na) {
			regressions++
			fmt.Fprintf(w, "%-13s %-30s %14.6g %14.6g %8s %6s %7s  %s\n", wl.Name, "fail_ratio", ratio(fa, na), ratio(fb, nb), "", "0", "", "REGRESSION")
		}
		type row struct {
			metricDef
			trace int
		}
		var rows []row
		exact := wl.Sim && sameSeeds(a, b, wl.Name)
		for _, d := range endToEnd {
			if exact && exactOnSim[d.Name] {
				d.Bound = 0
			}
			rows = append(rows, row{d, 0})
		}
		for _, d := range perLayer {
			if bound, ok := hostSpeed[d.Name]; ok {
				d.Bound = bound
				rows = append(rows, row{d, 1})
			} else if exact && exactOnSim[d.Name] {
				rows = append(rows, row{d, 1}) // per-layer metrics carry no bound: 0
			}
		}
		for _, d := range rows {
			va, vb := values(a, wl.Name, d.Name, d.trace), values(b, wl.Name, d.Name, d.trace)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if d.Better == "higher" {
				worse = -worse
			}
			spread := spreadOf(va)
			if s := spreadOf(vb); s > spread {
				spread = s
			}
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "REGRESSION"
				regressions++
			case d.Bound > 0 && spread > d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-13s %-30s %14.6g %14.6g %+7.1f%% %5.0f%% %6.1f%%  %s\n", wl.Name, d.Name, ma, mb, 100*worse, 100*d.Bound, 100*spread, verdict)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("compare: %d regressions of %s against %s", regressions, pathB, pathA)
	}
	return nil
}

func loadRuns(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// exactOnSim names the metrics that one seed fixes on a simulated
// workload: counts and simulated-time latencies, never wall-clock speeds.
// A worse median there is a protocol change, not noise.
var exactOnSim = map[string]bool{
	"op_p50_ms": true, "op_tail_ms": true, "msgs_per_cmd": true,
	"core.omega_msgs_per_s": true, "core.hb_msgs_per_s": true, "core.active_links": true,
	"core.failover_downtime_ms": true, "core.failover_downtime_max_ms": true,
	"sim.events_per_cmd": true, "network.sends_per_cmd": true,
}

// sameSeeds reports whether both files ran the workload on the same
// seeds, pass by pass: only then do exact metrics compare.
func sameSeeds(a, b *runFile, workload string) bool {
	seeds := func(f *runFile) string {
		var s []string
		for _, r := range f.Runs {
			if r.Workload == workload {
				s = append(s, fmt.Sprintf("%d/%d", r.Trace, r.Seed))
			}
		}
		sort.Strings(s)
		return fmt.Sprint(s)
	}
	return seeds(a) == seeds(b)
}

func values(f *runFile, workload, metric string, trace int) []float64 {
	var vs []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == trace {
			if m, ok := r.Result.Metrics[metric]; ok {
				vs = append(vs, m.Value)
			}
		}
	}
	return vs
}

func failures(f *runFile, workload string) (failed, attempted float64) {
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 {
			failed += float64(r.Result.Failed)
			attempted += float64(r.Result.Attempted)
		}
	}
	return failed, attempted
}

// spreadOf is the distance between the first and third quartile as a
// share of the median (the whole range below four values): the run-to-run
// noise of one input's own repeats.
func spreadOf(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quartile(s, 1), quartile(s, 3)
	}
	m := median(s)
	if m < 0 {
		m = -m
	}
	return ratio(hi-lo, m)
}

// quartile follows Python's statistics.quantiles(n=4), the exclusive
// method, on sorted input.
func quartile(s []float64, k int) float64 {
	pos := float64(k) * float64(len(s)+1) / 4
	j := int(pos)
	if j < 1 {
		return s[0]
	}
	if j >= len(s) {
		return s[len(s)-1]
	}
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}
