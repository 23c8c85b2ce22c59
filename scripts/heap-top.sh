#!/usr/bin/env bash
# Who owns the heap at the instant the benchmark samples rss_mb: the table
# of DESIGN.md §17. Or, with SAMPLE alloc_objects, who allocated how many
# objects inside the first measured window: the owners of allocs_per_op.
#
#   scripts/heap-top.sh WORKLOAD [SEED [SAMPLE]]
#   (make heap-top W=sim_failover [SEED=1] [SAMPLE=alloc_objects])
#
# Copies bench/ into a temporary directory under .bench_build/
# (bench-copy.sh), points the copy's replace directive at this checkout,
# and inserts one call at the top of one of the copy's functions: a forced collection, then a heap profile,
# heap.K.prof on the K-th call from 0. It runs the copy for -seconds 1
# -trace 0, prints the run's result line, then `go tool pprof -top` of the
# profiles, cut to the functions with a flat share above 0. SAMPLE is
# pprof's sample index, inuse_space by default: the hook is residentMB, at
# MemProfileRate 8192, and the table is the last profile written, what is
# live. With alloc_objects or alloc_space the hook is heapAllocs, whose
# first two calls open and close the first measured window (on a live
# workload its warm-up's end and its own end, on a sim the load's start
# and end); MemProfileRate is 1, every allocation sampled, and the table is
# the second profile less the first (pprof -base): what the window
# allocated, without the set-up boots and the warm-up before it. Writing
# the first profile allocates inside that difference; -ignore heapTop
# leaves it out. bench/ itself is never edited. Exits 1 when the hooked
# function's first line is no longer where it is looked for.
set -euo pipefail
w=${1:?usage: heap-top.sh WORKLOAD [SEED [SAMPLE]]}
seed=${2:-1}
sample=${3:-inuse_space}
rate=8192 at='func residentMB() float64 {'
case "$sample" in
inuse_space | inuse_objects) ;;
alloc_space | alloc_objects) rate=1 at='func heapAllocs() uint64 {' ;;
*)
	echo "heap-top: SAMPLE is inuse_space, inuse_objects, alloc_space or alloc_objects, not $sample" >&2
	exit 1
	;;
esac
. "$(dirname "${BASH_SOURCE[0]}")/bench-copy.sh"
hook sys.go "$at" 'heapTop()'
cat >"$dir/bench/heaptop.go" <<EOF
package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

func init() { runtime.MemProfileRate = $rate }

var heapTopCalls int

// heapTop writes the heap after a collection to heap.K.prof, K the number
// of calls before this one, for heap-top.sh to read.
func heapTop() {
	runtime.GC()
	f, err := os.Create(fmt.Sprintf("$dir/heap.%d.prof", heapTopCalls))
	if err != nil {
		panic(err)
	}
	heapTopCalls++
	defer f.Close()
	if err := pprof.WriteHeapProfile(f); err != nil {
		panic(err)
	}
}
EOF
go -C "$dir/bench" build -o "$dir/bench.bin" .
(cd "$root" && "$dir/bench.bin" -tmp "$out/tmp" -workload "$w" -seed "$seed" -seconds 1 -trace 0 | tail -n 1)
if [ "$rate" -eq 1 ]; then
	[ -f "$dir/heap.1.prof" ] || {
		echo "heap-top: heapAllocs ran fewer than twice: no window to list" >&2
		exit 1
	}
	go tool pprof -sample_index="$sample" -ignore='main\.heapTop' -base "$dir/heap.0.prof" -top "$dir/bench.bin" "$dir/heap.1.prof" 2>/dev/null | awk '$1 != "0"'
else
	k=0
	while [ -f "$dir/heap.$((k + 1)).prof" ]; do k=$((k + 1)); done
	go tool pprof -sample_index="$sample" -top "$dir/bench.bin" "$dir/heap.$k.prof" 2>/dev/null | awk '$1 != "0"'
fi
