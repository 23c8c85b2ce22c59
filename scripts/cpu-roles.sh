#!/usr/bin/env bash
# Where a live workload's CPU goes, by the role of the goroutine that spent
# it: CPU µs per operation over the first measured window.
#
#   scripts/cpu-roles.sh WORKLOAD [SEED [SECONDS]]
#   (make cpu-roles W=tcp_write [SEED=1])
#
# Copies bench/ into a temporary directory under .bench_build/
# (bench-copy.sh), points the copy's replace directive at this checkout,
# and inserts one call at the top of the copy's liveCluster.snapshot, which
# the generator calls where each measured window opens and closes. The
# first call labels the generator goroutine role=client and starts a CPU
# profile (100 Hz); the second stops it and writes down how many operations
# completed in between. The copy runs for -seconds SECONDS (default 10,
# BENCHMARK.json's run_seconds) at -trace 0. internal/transport labels its
# goroutines where it starts them (goRole: station, sender, reader,
# accept), so each sample carries the role of the goroutine it was taken
# on; samples without one (the collector, the scheduler, netpoll, timer
# callbacks) form the unlabelled row. It prints the run's cpu_us_per_op
# and result lines, then one row per role and the total: CPU seconds in
# the window and µs per operation. The rows sum to the total, which is the
# profile's; bench's cpu_us_per_op is the process's rusage over the same
# window, and reads a little higher. bench/ itself is never edited. Exits
# 1 when snapshot's first line is no longer where it is looked for, or the
# workload is not a live one.
set -euo pipefail
w=${1:?usage: cpu-roles.sh WORKLOAD [SEED [SECONDS]]}
seed=${2:-1}
secs=${3:-10}
. "$(dirname "${BASH_SOURCE[0]}")/bench-copy.sh"
hook live.go 'func (cl *liveCluster) snapshot() snap {' 'cpuRoles(cl)'
cat >"$dir/bench/cpuroles.go" <<EOF
package main

import (
	"context"
	"fmt"
	"os"
	"runtime/pprof"
)

var (
	cpuRolesCalls int
	cpuRolesOps   int64
	cpuRolesFile  *os.File
)

// cpuRoles profiles the CPU between its first two calls, with the calling
// goroutine, the generator, labelled role=client, and writes down the
// operations completed in between for cpu-roles.sh.
func cpuRoles(cl *liveCluster) {
	ops := cl.in.writesDone.Load() + cl.in.readsDone.Load()
	switch cpuRolesCalls++; cpuRolesCalls {
	case 1:
		pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("role", "client")))
		f, err := os.Create("$dir/cpu.prof")
		if err != nil {
			panic(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			panic(err)
		}
		cpuRolesFile, cpuRolesOps = f, ops
	case 2:
		pprof.StopCPUProfile()
		cpuRolesFile.Close()
		if err := os.WriteFile("$dir/ops", []byte(fmt.Sprint(ops-cpuRolesOps)), 0o644); err != nil {
			panic(err)
		}
	}
}
EOF
go -C "$dir/bench" build -o "$dir/bench.bin" .
(cd "$root" && "$dir/bench.bin" -tmp "$out/tmp" -workload "$w" -seed "$seed" -seconds "$secs" -trace 0 | grep -E '^ *cpu_us_per_op |^\{' | sed 's/^ *//')
[ -s "$dir/ops" ] || {
	echo "cpu-roles: no measured window was profiled: is $w a live workload?" >&2
	exit 1
}
ops=$(<"$dir/ops")
# go tool pprof -raw prints each sample's value (CPU ns) and its labels.
go tool pprof -raw "$dir/bench.bin" "$dir/cpu.prof" 2>/dev/null | awk -v ops="$ops" '
/^Samples:/ { s = 1; next }
/^Locations/ { s = 0 }
s && /^ *[0-9]+ +[0-9]+:/ { flush(); ns = $2 + 0; role = "unlabelled"; have = 1; next }
s && have && /role:\[/ { r = $0; sub(/.*role:\[/, "", r); sub(/\].*/, "", r); role = r }
END {
	flush()
	printf "%-12s %10s %12s   (%d operations)\n", "role", "cpu_s", "us_per_op", ops
	n = 0
	for (r in cpu) order[n++] = r
	for (i = 0; i < n; i++) for (j = i + 1; j < n; j++) if (cpu[order[j]] > cpu[order[i]]) { t = order[i]; order[i] = order[j]; order[j] = t }
	for (i = 0; i < n; i++) printf "%-12s %10.3f %12.2f\n", order[i], cpu[order[i]] / 1e9, cpu[order[i]] / 1e3 / ops
	printf "%-12s %10.3f %12.2f\n", "total", total / 1e9, total / 1e3 / ops
}
function flush() { if (have) { cpu[role] += ns; total += ns; have = 0 } }
'
