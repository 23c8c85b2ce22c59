#!/usr/bin/env bash
# Non-test Go lines per package, and the totals the ROADMAP's "net lines
# deleted" acceptance is counted in (make loc).
#
#   scripts/loc.sh [DIR]     DIR defaults to this checkout; pass a checkout
#                            of the parent commit to get the "before" column
#
# Prints one "lines package" row per package that has non-test Go files,
# then the total for the observability set (obs, metrics, trace, tracing,
# telemetry, traceview — a package that no longer exists counts 0), for
# cmd/ and for the module. Lines are raw `wc -l` lines: comments and blanks
# count, _test.go files do not.
set -euo pipefail
cd "${1:-$(git -C "$(dirname "$0")" rev-parse --show-toplevel)}"
go list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./... | while read -r pkg dir files; do
	[ -n "$files" ] || continue
	echo "$(cd "$dir" && cat $files | wc -l) $pkg"
done | awk '
{ printf "%6d  %s\n", $1, $2; all += $1 }
$2 ~ /\/internal\/(obs|metrics|trace|tracing|telemetry|traceview)$/ { o += $1 }
$2 ~ /\/cmd\// { c += $1 }
END { printf "%6d  observability set\n%6d  cmd/\n%6d  module\n", o, c, all }'
