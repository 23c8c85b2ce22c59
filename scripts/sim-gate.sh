#!/usr/bin/env bash
# The host-independent regression gate (make sim-gate, and CI's sim-gate
# job): the two simulated workloads at seed 1 on the parent commit and on
# this checkout, then `bench compare`. The metrics a seed fixes —
# op_p50_ms, op_tail_ms and msgs_per_cmd in simulated time and counted
# messages — it holds to a bound of 0 when both sides ran the same seeds:
# any change of the batching policy or the message schedule moves them on
# every host alike. allocs_per_op and rss_mb it holds to BENCHMARK.json's
# 10 % and 15 %: objects allocated and bytes kept by a single-threaded
# simulation are the program's, not the host's (they repeat within 0.6 %,
# bench/README.md "Baseline"). Only setup_s is the host's speed and is left
# out.
#
# The parent is what scripts/parent.sh checks out (BASE, or PARENT=<dir>).
set -euo pipefail
. "$(dirname "${BASH_SOURCE[0]}")/parent.sh"
out="$root/.bench_build"

# runs DIR prints the -out file of DIR's sim runs, without setup_s.
runs() {
	local w line sep=
	printf '{"seconds":10,"num_cpu":0,"runs":['
	for w in sim_steady sim_failover; do
		line=$(cd "$1" && bash bench/run.sh -workload "$w" -seed 1 -trace 0 | tail -n 1)
		case "$line" in
		*'"correct":true'*) ;;
		*) echo "sim-gate: $w in $1 did not finish correct: $line" >&2; exit 1 ;;
		esac
		printf '%s{"workload":"%s","seed":1,"trace":0,"result":{"correct":true,%s,%s,"metrics":{%s}}}' "$sep" "$w" \
			"$(grep -o '"attempted":[0-9]*' <<<"$line")" "$(grep -o '"failed":[0-9]*' <<<"$line")" \
			"$(grep -oE '"(op_p50_ms|op_tail_ms|msgs_per_cmd|allocs_per_op|rss_mb)":\{[^}]*\}' <<<"$line" | paste -sd, -)"
		sep=,
		echo "  $w in $1 done" >&2
	done
	printf ']}\n'
}

runs "$parent" >"$out/sim-gate-parent.json"
runs "$root" >"$out/sim-gate-change.json"
"$out/bench" compare "$out/sim-gate-parent.json" "$out/sim-gate-change.json"
