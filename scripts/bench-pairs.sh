#!/usr/bin/env bash
# Paired benchmark runs, parent against change: what a claim of a gain is
# measured with (choosing-metrics, "Measuring in a small sandbox").
#
#   scripts/bench-pairs.sh WORKLOAD [N]        (make bench-pairs W=tcp_wal N=10)
#
# Runs `bash bench/run.sh -workload WORKLOAD -seed i -trace 0` for seeds
# 1..N on both sides, alternating which side goes first, and prints per
# end-to-end metric each side's median and quartiles, the parent's
# interquartile range, and on how many seeds the change was lower (every
# end-to-end metric is lower-is-better).
#
# The change is this checkout as it stands, uncommitted edits included; the
# parent is what scripts/parent.sh checks out (BASE, or PARENT=<dir>).
# KEEP=<file> keeps every run's values, one "SIDE SEED METRIC VALUE" a line:
# the per-seed numbers a CHANGES.md entry quotes.
set -euo pipefail
w=${1:?usage: bench-pairs.sh WORKLOAD [N]}
n=${2:-10}
. "$(dirname "${BASH_SOURCE[0]}")/parent.sh"
runs=$(mktemp)

# run SIDE DIR SEED appends "SIDE SEED METRIC VALUE" lines from the
# result line the benchmark prints last.
run() {
	local line
	line=$(cd "$2" && bash bench/run.sh -workload "$w" -seed "$3" -trace 0 | tail -n 1)
	case "$line" in
	*'"correct":true'*) ;;
	*) echo "bench-pairs: $1 seed $3 did not finish correct: $line" >&2; exit 1 ;;
	esac
	echo "$line" | grep -o '"failed":[0-9]*' | sed "s/\"failed\":/$1 $3 failed /" >>"$runs"
	echo "$line" | grep -o '"[a-z0-9_.]*":{"value":[-+0-9.eE]*' |
		sed "s/^\"\([^\"]*\)\":{\"value\":/$1 $3 \1 /" >>"$runs"
	echo "  $1 seed $3 done" >&2
}

for i in $(seq 1 "$n"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$parent" "$i"; run change "$root" "$i"
	else
		run change "$root" "$i"; run parent "$parent" "$i"
	fi
done

awk -v w="$w" -v n="$n" '
function sorted(side, m, out,    i, j, k, t) {
	k = 0
	for (i = 1; i <= n; i++) if ((side, i, m) in v) out[++k] = v[side, i, m]
	for (i = 2; i <= k; i++) for (j = i; j > 1 && out[j-1] > out[j]; j--) { t = out[j]; out[j] = out[j-1]; out[j-1] = t }
	return k
}
# quantile q in quarters, the exclusive method bench compare uses.
function quart(s, k, q,    pos, j) {
	pos = q * (k + 1) / 4; j = int(pos)
	if (j < 1) return s[1]
	if (j >= k) return s[k]
	return s[j] + (pos - j) * (s[j+1] - s[j])
}
{ v[$1, $2, $3] = $4; if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 } }
END {
	printf "%s, %d pairs, seeds 1-%d\n", w, n, n
	printf "%-14s %32s %32s %9s %9s %9s  %s\n", "metric", "parent q1 / median / q3", "change q1 / median / q3", "parent iqr", "median d", "d %", "change lower"
	for (x = 1; x <= nm; x++) {
		m = order[x]
		kp = sorted("parent", m, p); kc = sorted("change", m, c)
		wins = 0; ties = 0
		for (i = 1; i <= n; i++) if (("parent", i, m) in v && ("change", i, m) in v) {
			if (v["change", i, m] < v["parent", i, m]) wins++
			else if (v["change", i, m] == v["parent", i, m]) ties++
		}
		mp = quart(p, kp, 2); mc = quart(c, kc, 2)
		printf "%-14s %10.5g /%10.5g /%10.5g %10.5g /%10.5g /%10.5g %9.4g %+9.4g %+8.1f%%  %d of %d", m, quart(p, kp, 1), mp, quart(p, kp, 3), quart(c, kc, 1), mc, quart(c, kc, 3), quart(p, kp, 3) - quart(p, kp, 1), mc - mp, (mp != 0 ? 100 * (mc - mp) / mp : 0), wins, kp
		if (ties) printf " (%d ties)", ties
		printf "\n"
	}
}' "$runs"
[ -z "${KEEP:-}" ] || cp "$runs" "$KEEP"
rm -f "$runs"
