#!/usr/bin/env bash
# Who owns the heap at the instant the benchmark samples rss_mb: the table
# of DESIGN.md §17.
#
#   scripts/heap-top.sh WORKLOAD [SEED]        (make heap-top W=sim_failover)
#
# Copies bench/ into a temporary directory under .bench_build/, points the
# copy's replace directive at this checkout, and inserts one call at the top
# of the copy's residentMB: a forced collection, then an inuse_space heap
# profile (MemProfileRate 8192, set when the program starts). It runs the
# copy for -seconds 1 -trace 0, prints the run's result line, then
# `go tool pprof -top` of the last profile written, cut to the allocating
# functions that own what is live (a flat share above 0). bench/ itself is
# never edited. Exits 1 when residentMB's first line is no longer where it
# is looked for.
set -euo pipefail
w=${1:?usage: heap-top.sh WORKLOAD [SEED]}
seed=${2:-1}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"
dir=$(mktemp -d "$out/heap-top.XXXXXX")
trap 'rm -rf "$dir"' EXIT

cp -R "$root/bench" "$dir/bench"
rm -f "$dir/bench/bench"
go -C "$dir/bench" mod edit -replace "repro=$root"
hook='func residentMB() float64 {'
grep -qxF "$hook" "$dir/bench/sys.go" || {
	echo "heap-top: bench/sys.go has no line '$hook' to insert the profile after" >&2
	exit 1
}
sed -i "s/^$hook\$/&\n\theapTop()/" "$dir/bench/sys.go"
cat >"$dir/bench/heaptop.go" <<EOF
package main

import (
	"os"
	"runtime"
	"runtime/pprof"
)

func init() { runtime.MemProfileRate = 8192 }

// heapTop writes what is live after a collection to the profile heap-top.sh reads.
func heapTop() {
	runtime.GC()
	f, err := os.Create("$dir/heap.prof")
	if err != nil {
		panic(err)
	}
	defer f.Close()
	if err := pprof.WriteHeapProfile(f); err != nil {
		panic(err)
	}
}
EOF
go -C "$dir/bench" build -o "$dir/bench.bin" .
(cd "$root" && "$dir/bench.bin" -tmp "$out/tmp" -workload "$w" -seed "$seed" -seconds 1 -trace 0 | tail -n 1)
go tool pprof -sample_index=inuse_space -top "$dir/bench.bin" "$dir/heap.prof" 2>/dev/null | awk '$1 != "0"'
