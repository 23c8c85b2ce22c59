#!/usr/bin/env bash
# The benchmark's own entry point, as a benchmark run invokes it (make
# bench-smoke): one untraced second of every workload BENCHMARK.json names,
# each through bash bench/run.sh -workload W -seconds 1 -trace 0. Exits 1
# unless every run exits 0 and its result line reports "correct":true and
# "failed":0; for a run that does not, it prints run.sh's exit status,
# the run's INCORRECT: and unstable: lines and its result line (the build's
# errors and bench's own complaints reach stderr as they happen).
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
	rc=0
	out=$(bash bench/run.sh -workload "$w" -seconds 1 -trace 0) || rc=$?
	result=$(grep '^{' <<<"$out" | tail -n 1 || true)
	if [ "$rc" -eq 0 ] && grep -q '"correct":true' <<<"$result" && grep -qE '"failed":0[,}]' <<<"$result"; then
		echo "bench-smoke: $w: correct, 0 failed"
		continue
	fi
	fail=1
	echo "bench-smoke: $w: FAILED; bench/run.sh exited $rc$([ "$rc" -eq 0 ] || echo ' (non-zero: the build, a correctness violation or five unstable attempts)')"
	grep -E '^ *(INCORRECT|unstable): ' <<<"$out" | sed "s/^ */bench-smoke: $w:   /" || true
	echo "bench-smoke: $w:   result: ${result:-none printed}"
done
exit "$fail"
