// Command bench is the repository's benchmark: six workloads over the
// consensus stack — four on a live loopback TCP cluster, two on the
// deterministic simulator — each checked for correctness and reported as
// end-to-end metrics, plus a traced pass that times the layers' public
// seams from outside to fill a per-layer budget. See README.md.
//
//	bench -workload tcp_write -seed 1 -seconds 10 -trace 0   # one run, one JSON line last
//	bench [-seed 1] [-seconds 10] [-repeats 1] [-out runs.json] # all workloads, both passes
//	bench compare A.json B.json                                # regression verdict between two -out files
//	bench spec                                                 # print BENCHMARK.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run this one workload and print its result line; empty runs them all")
		seed    = fs.Int64("seed", 1, "workload seed: fixes every input")
		seconds = fs.Float64("seconds", runSeconds, "measuring time per run")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced pass")
		tmp     = fs.String("tmp", ".bench_build/tmp", "scratch directory for WALs and span dumps")
		out     = fs.String("out", "", "all-workloads mode: write every run's result to this JSON file")
		repeats = fs.Int("repeats", 1, "all-workloads mode: runs per workload and pass, each with the next seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch fs.Arg(0) {
	case "compare":
		if fs.NArg() != 3 {
			return errors.New("usage: bench compare A.json B.json")
		}
		return compare(os.Stdout, fs.Arg(1), fs.Arg(2))
	case "spec":
		_, err := os.Stdout.Write(benchmarkJSON())
		return err
	case "":
	default:
		return fmt.Errorf("unknown command %q", fs.Arg(0))
	}
	if *seconds <= 0 || *seconds > 60 || *repeats < 1 {
		return errors.New("-seconds must be in (0, 60] and -repeats at least 1")
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		return err
	}
	if *name == "" {
		return runAll(*seed, *seconds, *repeats, *tmp, *out)
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	return runOne(w, *seed, *seconds, *trace != 0, *tmp)
}

// attempts is how often one invocation tries a workload before giving
// up on an unstable box: a run that trips a stability guard is thrown
// away whole, never averaged in. About one run in fifty trips one here,
// more inside one of the host's slow periods, which can outlast two runs.
const attempts = 5

// measure runs one workload in this process — so CPU time and peak RSS
// are this process's rusage — again while a stability guard trips.
func measure(w workload, seed int64, seconds float64, traced bool, tmp string) (*measurement, error) {
	for try := 1; ; try++ {
		run := runLive
		if w.Sim {
			run = runSim
		}
		m, err := run(w, seed, seconds, traced, tmp)
		if err != nil || len(m.Unstable) == 0 || len(m.Violations) > 0 {
			return m, err
		}
		if try == attempts {
			return m, fmt.Errorf("%s: unstable in %d attempts: %s", w.Name, attempts, strings.Join(m.Unstable, "; "))
		}
		fmt.Fprintf(os.Stderr, "bench: %s attempt %d unstable (%s), measuring again\n", w.Name, try, strings.Join(m.Unstable, "; "))
	}
}

// runOne prints one workload's metrics and, last, its result line.
func runOne(w workload, seed int64, seconds float64, traced bool, tmp string) error {
	m, err := measure(w, seed, seconds, traced, tmp)
	if m != nil {
		m.print(os.Stdout, w.Name, traced)
	}
	if err != nil {
		return err
	}
	if len(m.Violations) > 0 {
		return fmt.Errorf("%s: %d correctness violations", w.Name, len(m.Violations))
	}
	fmt.Println(mustJSON(m.line(traced)))
	return nil
}

// runRecord is one child run as kept in an -out file.
type runRecord struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Trace    int        `json:"trace"`
	Result   resultLine `json:"result"`
}

type runFile struct {
	Seconds float64     `json:"seconds"`
	NumCPU  int         `json:"num_cpu"`
	Runs    []runRecord `json:"runs"`
}

// runAll runs every workload, untraced then traced, each in a fresh
// child process of this binary.
func runAll(seed int64, seconds float64, repeats int, tmp, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := runFile{Seconds: seconds, NumCPU: runtime.NumCPU()}
	for trace := 0; trace <= 1; trace++ {
		for _, w := range workloads {
			for r := 0; r < repeats; r++ {
				cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed+int64(r)),
					"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-tmp", tmp)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
				if err != nil {
					os.Stdout.Write(stdout)
					return fmt.Errorf("%s (trace %d, seed %d): %w", w.Name, trace, seed+int64(r), err)
				}
				fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
				rec := runRecord{Workload: w.Name, Seed: seed + int64(r), Trace: trace}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
					return fmt.Errorf("%s: result line: %w", w.Name, err)
				}
				file.Runs = append(file.Runs, rec)
			}
		}
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}
