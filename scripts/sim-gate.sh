#!/usr/bin/env bash
# The host-independent regression gate (make sim-gate, and CI's sim-gate
# job): the two simulated workloads at seeds 1..SEEDS (default 1; CI passes
# 5) on the parent commit and on this checkout.
#
# Per seed, `bench compare` holds allocs_per_op and rss_mb to
# BENCHMARK.json's 10 % and 15 %: objects allocated and bytes kept by a
# single-threaded simulation are the program's, not the host's (they repeat
# within 0.6 %, bench/README.md "Baseline"). Only setup_s is the host's
# speed and is left out.
#
# msgs_per_cmd — counted messages, which a seed fixes — is judged here, per
# seed: on sim_steady, where no leader ever changes and nothing but a changed
# schedule can move it, to a bound of 0; on sim_failover it may be worse by a
# thousandth, relative. Not by nothing: a safety fix may have to send a
# message where none was sent (PR 29: a successor an instance behind learns it
# by value, two LEARNs in forty worlds), and whatever moves one event of a
# failover re-batches the backlog behind it — in PR 29, at seeds 1, 41, 81,
# 121 and 161, −4·10⁻⁵, −1·10⁻⁴, +7·10⁻⁵, −3·10⁻⁵ and +3·10⁻⁴, all but a
# handful of the messages ACCEPTs and ACCEPTEDs of instances cut elsewhere.
# A gate that refuses that teaches the next such fix to skip the gate. Not by
# more: one message an instance is 10⁻², one phase-2 round a failover 10⁻⁴,
# and every change to the schedule this gate has caught was of the first order.
#
# op_p50_ms and op_tail_ms are simulated time and repeat exactly per seed
# too, but a bound of 0 at one seed assumes the message schedule is
# untouched: a change that sends fewer messages draws the seeded delay
# stream in another order and moves them by ±0.2 % with either sign (PR 24).
# So a simulated-time latency is a regression only when it is worse on
# every seed, or its median over the seeds is worse by more than 0.5 % —
# which at SEEDS=1 is still the bound of 0. sim_failover pools the 40 worlds
# seed..seed+39, so its k-th run is given seed 1+40(k-1): consecutive seeds
# would share 39 worlds and agree on the sign for no reason but that.
#
# The parent is what scripts/parent.sh checks out (BASE, or PARENT=<dir>).
set -euo pipefail
. "$(dirname "${BASH_SOURCE[0]}")/parent.sh"
out="$root/.bench_build"
seeds=${SEEDS:-1}
workloads="sim_steady sim_failover"
latencies="op_p50_ms op_tail_ms"
counted="msgs_per_cmd"
failoverBound=0.001

# run DIR WORKLOAD SEED prints the run's JSON line, or fails.
run() {
	local line
	line=$(cd "$1" && bash bench/run.sh -workload "$2" -seed "$3" -trace 0 | tail -n 1)
	case "$line" in
	*'"correct":true'*) ;;
	*) echo "sim-gate: $2 seed $3 in $1 did not finish correct: $line" >&2; exit 1 ;;
	esac
	echo "  $2 seed $3 in $1 done" >&2
	printf '%s\n' "$line"
}

# entry WORKLOAD SEED LINE prints the run as an element of a -out file,
# with the metrics bench compare is to judge.
entry() {
	printf '{"workload":"%s","seed":%s,"trace":0,"result":{"correct":true,%s,%s,"metrics":{%s}}}' "$1" "$2" \
		"$(grep -o '"attempted":[0-9]*' <<<"$3")" "$(grep -o '"failed":[0-9]*' <<<"$3")" \
		"$(grep -oE '"(allocs_per_op|rss_mb)":\{[^}]*\}' <<<"$3" | paste -sd, -)"
}

# value METRIC LINE prints the metric's value.
value() { grep -oE "\"$1\":\{\"value\":[^,}]*" <<<"$2" | sed 's/.*://'; }

fail=0
mkdir -p "$out"
: >"$out/sim-gate-latency.txt"
: >"$out/sim-gate-counted.txt"
for seed in $(seq 1 "$seeds"); do
	for side in parent change; do
		dir=$parent
		[ "$side" = change ] && dir=$root
		sep=
		{
			printf '{"seconds":10,"num_cpu":0,"runs":['
			for w in $workloads; do
				at=$seed
				[ "$w" = sim_failover ] && at=$((1 + 40 * (seed - 1)))
				line=$(run "$dir" "$w" "$at")
				printf '%s' "$sep"
				entry "$w" "$at" "$line"
				sep=,
				for m in $latencies; do
					echo "$w $m $seed $side $(value "$m" "$line")" >>"$out/sim-gate-latency.txt"
				done
				for m in $counted; do
					echo "$w $m $seed $side $(value "$m" "$line")" >>"$out/sim-gate-counted.txt"
				done
			done
			printf ']}\n'
		} >"$out/sim-gate-$side.json"
	done
	echo "seed $seed:"
	"$out/bench" compare "$out/sim-gate-parent.json" "$out/sim-gate-change.json" || fail=1
done

# Counted metrics, seed by seed: worse by more than the bound, relative.
awk -v failover="$failoverBound" '
{ v[$1 " " $2 " " $3, $4] = $5; keys[$1 " " $2 " " $3] = 1 }
END {
	printf "%-13s %-12s %4s %14s %14s %12s  %s\n", "workload", "metric", "seed", "parent", "change", "worse", "verdict"
	for (k in keys) {
		split(k, f, " ")
		p = v[k, "parent"]; c = v[k, "change"]; by = (c - p) / p
		verdict = by > (f[1] == "sim_failover" ? failover : 0) ? "REGRESSION" : "ok"
		if (verdict != "ok") bad = 1
		printf "%-13s %-12s %4d %14.9g %14.9g %+11.4f%%  %s\n", f[1], f[2], f[3], p, c, 100 * by, verdict
	}
	exit bad
}' "$out/sim-gate-counted.txt" || fail=1

# Simulated-time latencies over the seeds: worse on every seed, or the
# median worse by more than 0.5 %.
awk -v seeds="$seeds" '
function median(a, n,    i, j, t) {
	for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
	return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
}
{ v[$1 " " $2, $3, $4] = $5; keys[$1 " " $2] = 1 }
END {
	printf "%-13s %-12s %14s %14s %8s %12s  %s\n", "workload", "metric", "parent median", "change median", "worse", "worse on", "verdict"
	for (k in keys) {
		worse = 0
		for (s = 1; s <= seeds; s++) { p[s] = v[k, s, "parent"]; c[s] = v[k, s, "change"]; if (c[s] > p[s]) worse++ }
		mp = median(p, seeds); mc = median(c, seeds); by = (mc - mp) / mp
		verdict = (worse == seeds || by > 0.005) ? "REGRESSION" : "ok"
		if (verdict != "ok") bad = 1
		printf "%-26s %14.6g %14.6g %+7.2f%% %5d of %-3d  %s\n", k, mp, mc, 100 * by, worse, seeds, verdict
	}
	exit bad
}' "$out/sim-gate-latency.txt" || fail=1
exit $fail
