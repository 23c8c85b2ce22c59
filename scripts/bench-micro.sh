#!/usr/bin/env bash
# The per-message and per-turn micro-benchmarks (make bench-micro; the
# Makefile's comment says what each measures), at go test's -benchtime
# BENCHTIME (default 1s; CI passes 100x), then the allocation gate: every
# benchmark named in zero below must report 0 allocs/op at that
# BENCHTIME. Exits 1 when a go test run fails, when a benchmark in zero
# reports more than 0 allocs/op, and when one in zero did not run at all,
# so a rename cannot retire it from the gate in silence.
#
#   scripts/bench-micro.sh     BENCHTIME=100x scripts/bench-micro.sh
set -euo pipefail
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
go=${GO:-go}
bt=${BENCHTIME:-1s}

# The benchmarks that allocate nothing per operation, by name as go test
# prints it without the -GOMAXPROCS suffix.
zero=(
	BenchmarkSinkRecordSend BenchmarkWireHeartbeatEncode BenchmarkWireEnvelopeEncode
	BenchmarkWorldMessagePath BenchmarkFabricSendSteadyState
	BenchmarkEnvelopeVarint/encode BenchmarkEnvelopeVarint/decode BenchmarkEnvelopeVarintVector/encode
	BenchmarkConnDecode/REQ-64B/conn BenchmarkConnDecode/ACCEPT-700B/conn BenchmarkConnDecode/ACCEPTED/conn
	BenchmarkConnDecode/READ/conn BenchmarkConnDecode/READR/conn BenchmarkConnDecode/READR-21/conn
	BenchmarkRecorderRecord BenchmarkRecordInstanceInOrder BenchmarkBatcherPumpFull BenchmarkApplyBatch16
	BenchmarkFollowerCommit BenchmarkPhase2Round BenchmarkSubmitWithBacklog BenchmarkLeaseReadTurn
	BenchmarkStationTurn BenchmarkNewKernel/Reset
)

out=$(mktemp)
trap 'rm -f "$out"' EXIT
bench() {
	"$go" test -run '^$' -bench "$1" -benchmem -benchtime "$bt" "${@:2}" | tee -a "$out"
}
bench 'SinkRecordSend|Wire|WorldMessagePath' .
bench 'FabricSendSteadyState' ./internal/network
bench 'Envelope|ConnDecode' ./internal/wire
bench 'RecorderRecord|RecordInstanceInOrder|BatcherPumpFull|ApplyBatch16|FollowerCommit|Phase2Round|SubmitWithBacklog|LeaseReadTurn' ./internal/consensus ./internal/consensus/rsm
bench 'StationTurn|WALTurn|WALOpen' ./internal/transport ./internal/durable
bench 'NewKernel|WorldBoot|WorldFailover' ./internal/sim ./internal/consensus/rsm
bench 'TCPSendBatched|NewTCPCluster' ./internal/transport

# name allocs, one line per benchmark that reported allocs/op.
reported=$(awk '/^Benchmark/ { for (i = 2; i <= NF; i++) if ($i == "allocs/op") { sub(/-[0-9]+$/, "", $1); print $1, $(i - 1) } }' "$out")
failed=0
for name in "${zero[@]}"; do
	allocs=$(awk -v n="$name" '$1 == n { print $2 }' <<<"$reported")
	if [ -z "$allocs" ]; then
		echo "bench-micro: $name did not run"
		failed=1
	elif [ "$allocs" != 0 ]; then
		echo "bench-micro: $name reports $allocs allocs/op at -benchtime $bt, want 0"
		failed=1
	fi
done
[ "$failed" -eq 0 ] && echo "bench-micro: ${#zero[@]} benchmarks at 0 allocs/op"
exit "$failed"
