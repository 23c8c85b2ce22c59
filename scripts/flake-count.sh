#!/usr/bin/env bash
# How often a test fails run alone (make flake-count RUN=<regex> [N=20]
# [PKG=./internal/transport]). The package's test binary is built once, from
# the current directory's module, and run N times in the package's
# directory, one process each, with -test.run RUN -test.count=1. It prints
# one line a run — pass, or FAIL with the first _test.go: line the run
# printed — then the tally and the steal ticks the host's CPUs gained over
# the batch (the steal column of /proc/stat's cpu line, read before and
# after): failures that come with climbing steal ran on a starved host. It
# reports and never fails; CI does not run it. To count the parent commit,
# run the script from a checkout of it.
set -uo pipefail
run=${1:?usage: flake-count.sh RUN [N] [PKG]} n=${2:-20} pkg=${3:-./internal/transport}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
if ! go test -c -o "$tmp/pkg.test" "$pkg"; then
	echo "flake-count: $pkg does not build"
	exit 0
fi
steal() { awk '$1 == "cpu" { print $9 }' /proc/stat; }
before=$(steal) failed=0
for ((i = 1; i <= n; i++)); do
	if out=$(cd "$pkg" && "$tmp/pkg.test" -test.run "$run" -test.count=1 2>&1); then
		echo "run $i: pass$(grep -q 'no tests to run' <<<"$out" && echo ' (no test matched)')"
	else
		failed=$((failed + 1))
		echo "run $i: FAIL $(grep -m1 -o '[A-Za-z0-9_]*_test\.go:[0-9]*:.*' <<<"$out" || echo '(no _test.go line)')"
	fi
done
echo "$run in $pkg: $((n - failed)) of $n passed; steal +$(($(steal) - before)) ticks over the batch"
