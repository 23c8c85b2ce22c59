#!/usr/bin/env bash
# Mutation check of internal/consensus/rsm (make mutants): each mutant
# below is one edit that breaks linearizable reads (read.go, lease.go),
# the leader's fan-out to its followers (pipeline.go: reach) or what the
# leader keeps of them across an abdication (lease.go: abdicateLeader).
# The script copies the package to a temporary directory, applies one
# mutant there, runs the package's tests against the copy (go test
# -overlay puts the copied files in place of the originals) and expects
# them to fail.
#
# Exits 1 when a mutant survives — the tests no longer catch that bug —
# and when a mutant's edit does not apply exactly once to its file, so a
# refactor of the read path or the fan-out cannot retire a mutant in
# silence: restate the edit for the new code. About ten seconds a mutant
# on 2 vCPUs.
set -euo pipefail
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
pkg="$root/internal/consensus/rsm"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Each mutant is four lines: a name, the file it edits, the text it
# replaces and the text it puts there.
mutants=(
	"a lease-less read answered without confirmation"
	read.go
	'from = sort.Search(len(ws), func(i int) bool { return ws[i].grant >= q })'
	'from = len(ws)'

	"a read confirmed by the grant current when it was noted"
	read.go
	'return ws[i].grant >= q'
	'return ws[i].grant > q'

	"lease reads at n = 3 that do not wait for their need"
	read.go
	'from, to = min(from, k), min(to, k)'
	'from = min(from, k)'

	"a follower that acks a grant below its promise"
	lease.go
	'if m.B < r.acc.promised {
		r.env.Send(from, NackMsg{B: m.B, Promised: r.acc.promised})'
	'if false {
		r.env.Send(from, NackMsg{B: m.B, Promised: r.acc.promised})'

	"a readiness check without reopenedEnd"
	read.go
	'r.log.firstGap >= max(r.prop.floor, r.prop.reopenedEnd)'
	'r.log.firstGap >= r.prop.floor'

	"a silent follower never probed again"
	pipeline.go
	'if f == r.me || silent && now.Sub(p.asked) < retryTimeout {'
	'if f == r.me || silent {'

	"a fan-out that sends to every follower, as a broadcast does"
	pipeline.go
	'if f == r.me || silent && now.Sub(p.asked) < retryTimeout {'
	'if f == r.me {'

	"an abdication that forgets what followers applied"
	lease.go
	'for f, p := range r.peers {
		r.peers[f] = follower{done: p.done}
	}'
	'clear(r.peers)'
)

failed=0
for ((i = 0; i < ${#mutants[@]}; i += 4)); do
	name=${mutants[i]} file=${mutants[i + 1]} old=${mutants[i + 2]} new=${mutants[i + 3]}
	dir="$tmp/$((i / 4))"
	mkdir -p "$dir"
	cp "$pkg"/*.go "$dir"/
	src=$(<"$pkg/$file")
	rest=${src#*"$old"}
	if [[ "$rest" == "$src" || "$rest" == *"$old"* ]]; then
		echo "mutant '$name': its edit does not apply exactly once to $file"
		failed=1
		continue
	fi
	printf '%s\n' "${src%%"$old"*}$new$rest" >"$dir/$file"
	{
		echo '{"Replace": {'
		sep=
		for f in "$pkg"/*.go; do
			printf '%s"%s": "%s"' "$sep" "$f" "$dir/$(basename "$f")"
			sep=$',\n'
		done
		echo '}}'
	} >"$dir/overlay.json"
	if out=$(cd "$root" && go test -count=1 -overlay "$dir/overlay.json" ./internal/consensus/rsm 2>&1); then
		echo "mutant '$name': SURVIVED — no test of rsm fails"
		failed=1
	else
		killed=$(grep -o -- '^--- FAIL: [A-Za-z0-9_]*' <<<"$out" | cut -d' ' -f3 | paste -sd' ')
		echo "mutant '$name': killed by ${killed:-a build failure}"
	fi
done
exit "$failed"
