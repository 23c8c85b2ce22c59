#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source
# into the checkout's own .bench_build (the Go caches too, so nothing is
# read or written outside the checkout), then run it with the caller's
# arguments from the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"
go -C "$here" build -o "$out/bench" . >&2
cd "$root"
exec "$out/bench" -tmp "$out/tmp" "$@"
