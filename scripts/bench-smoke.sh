#!/usr/bin/env bash
# The benchmark's own entry point, as a benchmark run invokes it (make
# bench-smoke): one untraced second of every workload BENCHMARK.json names,
# each through bash bench/run.sh -workload W -seconds 1 -trace 0. Exits 1
# unless every run's last line reports "correct":true and "failed":0.
# make bench-check runs the benchmark module's own tests, whose smoke run
# is the traced half only (-short); this is the untraced half, from source,
# as it is measured. About ten seconds on 2 vCPUs once built.
set -euo pipefail
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
workloads=$(awk '/"workloads"/ { w = 1 } w && /"name"/ { gsub(/[",]/, "", $2); print $2 } w && /\]/ { exit }' BENCHMARK.json)
[ -n "$workloads" ] || { echo "bench-smoke: no workload named in BENCHMARK.json"; exit 1; }
fail=0
for w in $workloads; do
	if ! line=$(bash bench/run.sh -workload "$w" -seconds 1 -trace 0 | tail -n 1); then
		echo "bench-smoke: $w: bench/run.sh failed"
		fail=1
	elif grep -q '"correct":true' <<<"$line" && grep -qE '"failed":0[,}]' <<<"$line"; then
		echo "bench-smoke: $w: correct, 0 failed"
	else
		echo "bench-smoke: $w: $line"
		fail=1
	fi
done
exit "$fail"
