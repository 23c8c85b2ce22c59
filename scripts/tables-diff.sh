#!/usr/bin/env bash
# Every experiment table on the parent commit and on this checkout (make
# tables-diff): `go run ./cmd/benchtables` on each side, then diff -u of
# the two. Exits 1 when they differ. A refactor leaves the diff empty; a
# change of behaviour shows which rows it moves, and its CHANGES.md entry
# names them. About ten seconds a side on 2 vCPUs.
#
# The parent is what scripts/parent.sh checks out (BASE, or PARENT=<dir>).
set -euo pipefail
. "$(dirname "${BASH_SOURCE[0]}")/parent.sh"
out="$root/.bench_build"
mkdir -p "$out"
(cd "$parent" && go run ./cmd/benchtables) >"$out/tables-parent.md"
(cd "$root" && go run ./cmd/benchtables) >"$out/tables.md"
diff -u --label parent --label change "$out/tables-parent.md" "$out/tables.md"
