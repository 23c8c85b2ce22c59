#!/usr/bin/env bash
# Who owns the heap at the instant the benchmark samples rss_mb: the table
# of DESIGN.md §17. Or, with SAMPLE alloc_objects, who allocated how many
# objects up to that instant: the owners of allocs_per_op.
#
#   scripts/heap-top.sh WORKLOAD [SEED [SAMPLE]]
#   (make heap-top W=sim_failover [SEED=1] [SAMPLE=alloc_objects])
#
# Copies bench/ into a temporary directory under .bench_build/, points the
# copy's replace directive at this checkout, and inserts one call at the top
# of the copy's residentMB: a forced collection, then a heap profile. It
# runs the copy for -seconds 1 -trace 0, prints the run's result line, then
# `go tool pprof -top` of the profile, cut to the functions with a flat
# share above 0. SAMPLE is pprof's sample index, inuse_space by default: the
# last profile written (MemProfileRate 8192), what is live. With
# alloc_objects or alloc_space the profile is the first one written, every
# allocation up to the first rss_mb sample, and MemProfileRate is 64, so
# that small objects are counted about one for one. bench/ itself is never
# edited. Exits 1 when residentMB's first line is no longer where it is
# looked for.
set -euo pipefail
w=${1:?usage: heap-top.sh WORKLOAD [SEED [SAMPLE]]}
seed=${2:-1}
sample=${3:-inuse_space}
rate=8192 once=false
case "$sample" in
inuse_space | inuse_objects) ;;
alloc_space | alloc_objects) rate=64 once=true ;;
*)
	echo "heap-top: SAMPLE is inuse_space, inuse_objects, alloc_space or alloc_objects, not $sample" >&2
	exit 1
	;;
esac
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

func init() { runtime.MemProfileRate = $rate }

var heapTopWritten bool

// heapTop writes the heap after a collection to the profile heap-top.sh
// reads: on every call, or with once only on the first.
func heapTop() {
	if $once && heapTopWritten {
		return
	}
	heapTopWritten = true
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
go tool pprof -sample_index="$sample" -top "$dir/bench.bin" "$dir/heap.prof" 2>/dev/null | awk '$1 != "0"'
