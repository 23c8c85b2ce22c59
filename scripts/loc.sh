#!/usr/bin/env bash
# Non-test Go lines per package, and the totals the ROADMAP's "net lines
# deleted" acceptance is counted in (make loc).
#
#   scripts/loc.sh [DIR]     DIR defaults to this checkout; pass a checkout
#                            of the parent commit to get the "before" column
#   BASE=<rev> scripts/loc.sh, PARENT=<dir> scripts/loc.sh
#                            the same table for this checkout, then before,
#                            after and delta against the parent
#                            (scripts/parent.sh chooses it, as for
#                            bench-pairs and sim-gate) for rsm, the
#                            observability set, cmd/ and the module
#
# Prints one "lines package" row per package that has non-test Go files,
# then the total for the observability set (obs, metrics, trace, tracing,
# telemetry, traceview — a package that no longer exists counts 0), for
# cmd/ and for the module, rsm's lines split into code, comment and blank,
# and DESIGN.md's lines. Lines are raw `wc -l` lines: comments and blanks
# count, _test.go files do not. A comment line is one whose first
# non-blank characters are //; a line with code and a trailing comment is
# code. Against a parent it exits 1 when rsm or the observability set has
# grown: a change lands each no larger than it found it. The rsm split, so
# that lines cut from comments can be told from lines cut from code, and
# DESIGN.md's row, against its target of 1,200 lines (ROADMAP item 4(f)),
# are reported and never fail the script.
set -euo pipefail

# count DIR prints the table for the checkout at DIR.
count() {
	(cd "$1" && go list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./...) | while read -r pkg dir files; do
		[ -n "$files" ] || continue
		echo "$(cd "$dir" && cat $files | wc -l) $pkg"
	done | awk '
	{ printf "%6d  %s\n", $1, $2; all += $1 }
	$2 ~ /\/internal\/(obs|metrics|trace|tracing|telemetry|traceview)$/ { o += $1 }
	$2 ~ /\/cmd\// { c += $1 }
	END { printf "%6d  observability set\n%6d  cmd/\n%6d  module\n", o, c, all }'
	(cd "$1/internal/consensus/rsm" && cat $(ls *.go | grep -v '_test\.go$')) | awk '
	/^[ \t]*$/ { b++; next }
	/^[ \t]*\/\// { m++; next }
	{ k++ }
	END { printf "%6d  rsm code\n%6d  rsm comment\n%6d  rsm blank\n", k, m, b }'
	printf '%6d  DESIGN.md\n' "$(wc -l <"$1/DESIGN.md")"
}

if [ $# -gt 0 ] || [ -z "${BASE:-}${PARENT:-}" ]; then
	count "${1:-$(git -C "$(dirname "$0")" rev-parse --show-toplevel)}"
	exit
fi
. "$(dirname "${BASH_SOURCE[0]}")/parent.sh"
before=$(count "$parent")
after=$(count "$root")
echo "$after"
{
	sed 's/^/before /' <<<"$before"
	sed 's/^/after /' <<<"$after"
} | awk '
{ side = $1; n = $2; $1 = $2 = ""; name = substr($0, 3) }
name ~ /\/internal\/consensus\/rsm$/ { name = "rsm" }
{ v[name, side] = n }
END {
	printf "\n%-18s %7s %7s %7s\n", "", "before", "after", "delta"
	split("rsm|rsm code|rsm comment|rsm blank|observability set|cmd/|module|DESIGN.md", keys, "|")
	for (i = 1; i <= 8; i++) {
		k = keys[i]
		d = v[k, "after"] - v[k, "before"]
		grew = (k == "rsm" || k == "observability set") && d > 0
		if (grew) bad = 1
		note = grew ? "  grew: land it no larger than it was found" : ""
		if (k ~ /^rsm [a-z]/) note = "  reported, not a gate"
		if (k == "DESIGN.md") note = "  target 1,200 (ROADMAP 4(f)): reported, not a gate"
		printf "%-18s %7d %7d %+7d%s\n", k, v[k, "before"], v[k, "after"], d, note
	}
	exit bad
}'
