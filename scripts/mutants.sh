#!/usr/bin/env bash
# Mutation check (make mutants): each mutant below is one edit, to
# internal/consensus/rsm, that breaks linearizable reads (read.go,
# lease.go), the leader's fan-out to its followers (pipeline.go: reach),
# what the leader keeps of them across an abdication (lease.go:
# abdicateLeader), the catch-up it serves from its Recorder (log.go:
# decision) or what a promise reports of a decided slot above the decided
# prefix (proposer.go: promiseEntries), or how a client's command enters a
# follower (batch.go: onRequest), or, to internal/consensus, the safety
# checker's agreement per command slot (consensus.go: CheckSafety).
# The script copies the package of the file a mutant edits to a temporary
# directory, applies the mutant there, runs that package's tests against
# the copy (go test -overlay puts the copied files in place of the
# originals) and expects them to fail.
#
# Exits 1 when a mutant survives — the tests no longer catch that bug —
# and when a mutant's edit does not apply exactly once to its file, so a
# refactor of the read path, the fan-out, the catch-up or the checker
# cannot retire a mutant in silence: restate the edit for the new code.
# About ten seconds a mutant on 2 vCPUs.
set -euo pipefail
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Each mutant is four lines: a name, the file it edits (from the root of
# the module), the text it replaces and the text it puts there.
mutants=(
	"a lease-less read answered without confirmation"
	internal/consensus/rsm/read.go
	'from = sort.Search(len(ws), func(i int) bool { return ws[i].grant >= q })'
	'from = len(ws)'

	"a read confirmed by the grant current when it was noted"
	internal/consensus/rsm/read.go
	'return ws[i].grant >= q'
	'return ws[i].grant > q'

	"lease reads at n = 3 that do not wait for their need"
	internal/consensus/rsm/read.go
	'from, to = min(from, k), min(to, k)'
	'from = min(from, k)'

	"a follower that acks a grant below its promise"
	internal/consensus/rsm/lease.go
	'if m.B < r.acc.promised {
		r.env.Send(from, NackMsg{B: m.B, Promised: r.acc.promised})'
	'if false {
		r.env.Send(from, NackMsg{B: m.B, Promised: r.acc.promised})'

	"a readiness check without reopenedEnd"
	internal/consensus/rsm/read.go
	'r.log.firstGap >= max(r.prop.floor, r.prop.reopenedEnd)'
	'r.log.firstGap >= r.prop.floor'

	"a silent follower never probed again"
	internal/consensus/rsm/pipeline.go
	'if f == r.me || silent && now.Sub(p.asked) < retryTimeout {'
	'if f == r.me || silent {'

	"a fan-out that sends to every follower, as a broadcast does"
	internal/consensus/rsm/pipeline.go
	'if f == r.me || silent && now.Sub(p.asked) < retryTimeout {'
	'if f == r.me {'

	"an abdication that forgets what followers applied"
	internal/consensus/rsm/lease.go
	'for f, p := range r.peers {
		r.peers[f] = follower{done: p.done}
	}'
	'clear(r.peers)'

	"a leader that serves nothing below its window"
	internal/consensus/rsm/log.go
	'return r.rec.Value(inst)'
	'return consensus.NoValue, false'

	"a promise that leaves out a decided slot above the prefix"
	internal/consensus/rsm/proposer.go
	'if s := r.log.at(inst); s.b != consensus.NoBallot {'
	'if s := r.log.at(inst); s.b != consensus.NoBallot && !s.decided() {'

	"a self-addressed REQ held like a peer's"
	internal/consensus/rsm/batch.go
	'if from == r.me {
		r.Submit(m.V)'
	'if false {
		r.Submit(m.V)'

	"CheckSafety ignores a per-command disagreement"
	internal/consensus/consensus.go
	'if prev.Value != d.Value {'
	'if prev.Cmd == 0 && prev.Value != d.Value {'
)

failed=0
for ((i = 0; i < ${#mutants[@]}; i += 4)); do
	name=${mutants[i]} file=${mutants[i + 1]} old=${mutants[i + 2]} new=${mutants[i + 3]}
	pkg=$(dirname "$file")
	dir="$tmp/$((i / 4))"
	mkdir -p "$dir"
	cp "$root/$pkg"/*.go "$dir"/
	src=$(<"$root/$file")
	rest=${src#*"$old"}
	if [[ "$rest" == "$src" || "$rest" == *"$old"* ]]; then
		echo "mutant '$name': its edit does not apply exactly once to $file"
		failed=1
		continue
	fi
	printf '%s\n' "${src%%"$old"*}$new$rest" >"$dir/$(basename "$file")"
	{
		echo '{"Replace": {'
		sep=
		for f in "$root/$pkg"/*.go; do
			printf '%s"%s": "%s"' "$sep" "$f" "$dir/$(basename "$f")"
			sep=$',\n'
		done
		echo '}}'
	} >"$dir/overlay.json"
	if out=$(cd "$root" && go test -count=1 -overlay "$dir/overlay.json" "./$pkg" 2>&1); then
		echo "mutant '$name': SURVIVED — no test of $pkg fails"
		failed=1
	else
		killed=$(grep -o -- '^--- FAIL: [A-Za-z0-9_]*' <<<"$out" | cut -d' ' -f3 | paste -sd' ')
		echo "mutant '$name': killed by ${killed:-a build failure}"
	fi
done
exit "$failed"
