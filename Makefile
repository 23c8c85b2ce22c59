GO ?= go

.PHONY: all build vet test loc tables-diff flake-count mutants bench-check bench-smoke bench-pairs heap-top cpu-roles sim-gate test-race fuzz-smoke soak recovery-soak telemetry-smoke trace-smoke bench bench-micro tables

all: vet test

build:
	$(GO) build ./...

# gofmt -l lists what it would rewrite and exits 0 all the same: a
# non-empty list fails here.
vet:
	$(GO) vet ./...
	@fmt=$$(gofmt -l .); [ -z "$$fmt" ] || { echo "gofmt -l . lists:"; echo "$$fmt"; exit 1; }

test: bench-check
	$(GO) test ./...

# Non-test Go lines per package, with the total for the observability set
# (obs, metrics, tracing, telemetry, traceview) and for cmd/. Given a
# parent, chosen as for bench-pairs (make loc BASE=HEAD~1, or
# PARENT=<dir>), it also prints before, after and delta for rsm, the
# observability set, cmd/ and the module, and fails when rsm or the
# observability set is larger than at the parent: a change lands each no
# larger than it found it. rsm's code, comment and blank lines are printed
# beside its raw count, before and after, and never fail it; nor do rsm's
# 2,400-line target and the observability set's 2,900, printed on their rows. DESIGN.md's line count is printed
# too, against its 1,200-line target, and never fails it. scripts/loc.sh DIR counts
# another checkout alone.
loc:
	bash scripts/loc.sh

# Every experiment table (benchtables) on the parent, chosen as for
# bench-pairs (make tables-diff BASE=HEAD~1, or PARENT=<dir>), and on this
# checkout: prints diff -u and fails on any difference. A refactor lands
# with an empty diff; a behaviour change names the rows it moves.
tables-diff:
	bash scripts/tables-diff.sh

# The mutation check of rsm and the safety checker: twelve edits — five
# that each break linearizable reads, two that break the leader's fan-out,
# one that makes an abdication forget how far each process has applied,
# one that has a replica serve nothing it has applied from its Recorder,
# one that has a promise leave out a decided slot above the decided prefix,
# one that has a follower hold a REQ from itself like a peer's instead of
# submitting it, and one that has CheckSafety ignore a per-command
# disagreement — applied one at a time to a temporary copy of the package
# each edits, whose tests must fail on every one. It fails when a mutant
# survives or its edit no longer applies (scripts/mutants.sh). About 120 s;
# CI's build-test job runs it.
mutants:
	bash scripts/mutants.sh

# The repository benchmark is a nested module (bench/go.mod), so ./...
# does not descend into it: an API change under internal/ that breaks it
# shows only here. -short leaves out the untraced half of its smoke run.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -short ./...

# The untraced half bench-check leaves out, through the entry point
# BENCHMARK.json names: one second of each of its workloads by bash
# bench/run.sh -workload W -seconds 1 -trace 0, each of which must end
# "correct":true with "failed":0 (scripts/bench-smoke.sh). About ten
# seconds after the build; CI's build-test job runs it.
bench-smoke:
	bash scripts/bench-smoke.sh

# Ten alternating parent/change pairs of one benchmark workload, with
# medians, quartiles and wins per end-to-end metric: what a claim of a gain
# rests on (make bench-pairs W=tcp_wal N=10). The parent is BASE (default
# HEAD when the tree is dirty, else HEAD~1) in a git worktree under
# .bench_build/; see the script's header.
W ?= tcp_write
N ?= 10
bench-pairs:
	bash scripts/bench-pairs.sh $(W) $(N)

# Who owns the heap where the benchmark samples rss_mb, for one workload
# (make heap-top W=sim_failover [SEED=1]): a one-second run of a temporary
# copy of bench/ that writes an inuse_space heap profile there, then
# go tool pprof -top of it (scripts/heap-top.sh). DESIGN.md §17's table is
# read from it. SAMPLE=alloc_objects lists instead who allocated how many
# objects inside the first measured window, every allocation counted
# (MemProfileRate 1): the owners of allocs_per_op, which is how the
# simulator's per-record pools were found to be worth minting in chunks and
# rsm's READ-REPLY tails worth cutting from an arena. Manual: CI does not
# run it.
SEED ?= 1
SAMPLE ?= inuse_space
heap-top:
	bash scripts/heap-top.sh $(W) $(SEED) $(SAMPLE)

# Where a live workload's CPU goes, by goroutine role (make cpu-roles
# W=tcp_write [SEED=1]): a ten-second run of a temporary copy of bench/
# with a CPU profile over its first measured window, the generator
# labelled client and the transport's goroutines labelled where tcp.go
# starts them (station, sender, reader, accept); it prints CPU µs per
# operation per role, plus an unlabelled row (GC, scheduler, netpoll,
# timers), rows summing to the profile's total (scripts/cpu-roles.sh).
# Manual: CI does not run it.
cpu-roles:
	bash scripts/cpu-roles.sh $(W) $(SEED)

# The regression gate a noisy host cannot defeat: sim_steady and
# sim_failover at seeds 1..SEEDS (default 1; CI passes 5) on the parent
# commit and on this checkout. Per seed, messages per command are held to
# a bound of 0 on sim_steady and may be worse by a thousandth on
# sim_failover (one message an instance is a hundredth; the script's header
# has the reason), and bench compare holds what the program fixes within a
# percent (allocations per operation, resident memory) to BENCHMARK.json's
# bounds; over the seeds,
# simulated-time p50 and tail are a regression when worse on every seed or
# by more than 0.5 % in the median — a change of message count reorders the
# seeded delays and moves them ±0.2 % either way.
# About a minute a seed; CI's sim-gate job runs it.
# The parent is chosen as for bench-pairs (BASE, or PARENT=<dir>).
SEEDS ?= 1
sim-gate:
	SEEDS=$(SEEDS) bash scripts/sim-gate.sh

# Race-check everything. Real concurrency lives in the live transport,
# the fault injector, the sharded observer sink and telemetry collector
# it records into, and the parallel sweep pool — but the purely sequential packages are cheap under -race, so run the
# whole module rather than maintain a list. -short trims the chaos
# soaks' wall-clock GST.
test-race:
	$(GO) test -race -short ./...

# Twenty seconds of the wire fuzzer, then five of the one thing a frame
# carries that rsm unpacks itself, a shared READ-REPLY's tail (unpacking
# never panics, yields nothing from a malformed tail, and inverts
# packing). The wire fuzzer: strict decoding, refusal of a frame without
# its marker byte, the encode/decode fixpoint, and a connection decoder
# that agrees with the
# shared path and never aliases its input (DESIGN.md §11, §16). CI's
# build-test job runs it. -fuzzminimizetime: left at its 60 s default, the
# first input that reaches new coverage is minimized for the rest of the
# run (execs stand still after ~20k; with the cap, ~800k in the 20 s).
# Last, twenty seconds of fault schedules (DESIGN.md §10): each input
# decodes to a schedule that an n = 3 rsm world runs for 2 simulated
# seconds, judged by consensus safety alone (≈2,000 execs/s on 2 vCPUs).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzEnvelopeRoundTrip -fuzztime=20s -fuzzminimizetime=1s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzReadSpans -fuzztime=5s -fuzzminimizetime=1s ./internal/consensus/rsm
	$(GO) test -run='^$$' -fuzz=FuzzSchedule -fuzztime=20s -fuzzminimizetime=1s ./internal/scenario

# Every live soak under the race detector, each once: transport's
# TestChaosSoakTCP (leader crash, minority cut, heal) and
# TestChaosSoakPreGSTChaosHeals (pre-GST link chaos), then chaossoak's
# kill -9 drill test, all with consensus safety checked at the end (see
# DESIGN.md §10).
#
# With METRICS set (make soak METRICS=:8080) the soak instead runs as a
# watchable live cluster: the drill at n = 5 with η = 1 s (about ten
# seconds) and the telemetry endpoint serving /metrics, /healthz and pprof
# on that address for the duration of the run (see README "watching a
# live cluster").
ifdef METRICS
soak:
	$(GO) run ./cmd/chaossoak -eta 1s -metrics-addr $(METRICS)
else
soak:
	$(GO) test -race -count=1 -run 'ChaosSoak' -v ./internal/transport/
	$(GO) test -race -count=1 ./cmd/chaossoak/
endif

# Kill -9 recovery soak under the race detector (DESIGN.md §14), over TCP:
# the leader dies mid-batch, restarts in place from its write-ahead log
# (TCPCluster.Restart: the process keeps its sockets), and must
# rejoin, catch up, and regain proposer eligibility; afterwards every
# WAL is reopened twice to check deterministic recovery and
# prefix-consistent applied sequences. The restart/rejoin transport
# tests ride along, three hundred times over: a run is 50 ms, and the
# agreement violation they caught (a leader behind a member of its own
# phase-1 quorum filling a decided slot, DESIGN.md §14) showed in one run
# in a hundred — it stayed a flake for eleven PRs because CI looked once.
# The last line runs the drill once more under the race detector, as a
# command, not a test. TestRunRecoveryPlanMem, the drill's test, runs
# five times over: its catch-up bar is taken from what the survivors
# decided after the kill, so a pass no longer depends on how far the
# warm-up happened to overshoot, and a flake here is a bug. The -n 3 runs
# are where a follower decides on its own vote (a quorum of two): the kill
# meets that path with a WAL that syncs on every flush, without a lease and
# with one, whose local reads wait for what was launched before them.
recovery-soak:
	$(GO) test -race -count=5 -run 'TestRunRecoveryPlanMem' -v ./cmd/chaossoak/
	$(GO) test -race -count=300 -run 'Restart' ./internal/transport/
	$(GO) run ./cmd/chaossoak -n 5 -fsync always
	$(GO) run ./cmd/chaossoak -n 3 -fsync always
	$(GO) run ./cmd/chaossoak -n 3 -fsync always -lease 300ms
	$(GO) run -race ./cmd/chaossoak -n 3

# A live election reaching the collector, then a simulated one. The live
# leg runs chaossoak's kill -9 drill over TCP with the telemetry endpoint,
# scrapes /metrics mid-run with curl, and, after the run, reads the file
# -metrics-out wrote (what /metrics answers at the end): it must count at
# least two elections — the boot election and one after a leader's kill —
# and an agreed leader. -eta 200ms stretches the run to about two seconds;
# at the default 5 ms it is over in tens of milliseconds, before any
# scrape lands. The omegasim line: a simulated leader crash reaches the
# collector through the world's own obs.Down, so the finished run's
# /healthz must answer 200 with the survivors' leader (curl -f fails on
# the 503 it answered before the runtimes reported crashes themselves).
telemetry-smoke:
	$(GO) build -o /tmp/chaossoak-smoke ./cmd/chaossoak
	rm -f /tmp/telemetry-smoke/live.prom
	/tmp/chaossoak-smoke -n 3 -eta 200ms -metrics-addr 127.0.0.1:9109 -metrics-out /tmp/telemetry-smoke/live.prom & \
	pid=$$!; sleep 1; \
	curl -fsS http://127.0.0.1:9109/metrics | grep -E 'omega_(sent_total|active_links|leader) '; rc=$$?; \
	wait $$pid && exit $$rc
	awk '$$1 == "omega_elections_total" { e = $$2 } $$1 == "omega_leader" { l = $$2; seen = 1 } \
		END { if (e >= 2 && seen && l != -1) exit; \
		print "telemetry-smoke: live.prom reads elections=" e " leader=" l ", want >= 2 and a leader"; exit 1 }' \
		/tmp/telemetry-smoke/live.prom
	$(GO) build -o /tmp/omegasim-smoke ./cmd/omegasim
	/tmp/omegasim-smoke -crash 0@300ms -metrics-addr 127.0.0.1:9110 & \
	pid=$$!; sleep 2; \
	curl -fsS http://127.0.0.1:9110/healthz | grep '"leader": 1'; rc=$$?; \
	kill -INT $$pid; wait $$pid; exit $$rc

# Full benchmark suite (experiment regeneration + substrate micro-benches).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Just the per-message-path micro-benchmarks: observer sink recording and
# wire encode/decode, the simulator's per-message turn (WorldMessagePath: a
# send from outside any turn, then its delivery as a turn of one), its send
# path (FabricSendSteadyState: a send counted, its delay drawn, its delivery
# scheduled and fired), then the per-command bookkeeping of the consensus
# engine (decision recording at a follower and, RecordInstanceInOrder, at
# the leader that proposed, a pump that cannot propose, applying a
# 16-command batch) and BenchmarkFollowerCommit, a follower's whole share
# of an instance (ACCEPT of a 16-command envelope, then the commit index:
# vote, decide from the vote, apply), and Phase2Round, one instance of
# three replicas on hand-driven envs (ACCEPT broadcast, two ACCEPTEDs, the
# commit index). The phase-2 messages are cut from slabs, a chunk per 64,
# and the value the leader proposes from its arena. Then the turn:
# StationTurn is one steady-state turn of a leader's node loop (ten
# requests and a vote in, one ACCEPT broadcast out; ns and allocs per ten
# commands), WALTurn sixteen votes flushed once against sixteen flushed one
# by one, WALOpen what a replica's store adds to its boot (Open and Close of
# a WAL in a directory Open creates, per fsync policy; no policy syncs
# there), SubmitWithBacklog a follower's Submit behind forty outstanding
# commands (the REQ it forwards is cut from a slab too), and LeaseReadTurn
# a turn of sixteen reads at a lease-holding leader (the one reply's box is
# cut from a slab, its packed tail from the read path's arena).
# NewKernel is what seeding a world's random source costs: sim.NewRand
# should take at most a third of math/rand's own rand.NewSource's time,
# with the same two allocations, and Reset reseeds with none. WorldBoot is
# one n = 5 core+rsm world from NewWorld to its first applied command, and
# WorldFailover that world under sim_failover's load without the
# benchmark's client — 2,000 commands a simulated second at p2 for a
# second, p0 crashed halfway — with allocs/cmd, every allocation from boot
# to the last apply per command.
# In internal/wire, Envelope* encodes and decodes a heartbeat envelope
# and a vector heartbeat through the shared path (2 allocs/op to decode the
# vector, none for the rest), and ConnDecode is what a socket's read loop
# pays to decode a frame of the per-operation path — a 64-byte REQ, a
# 700-byte ACCEPT, an ACCEPTED, a READ, a READR alone and one answering 21
# reads — through its own decoder (every box is cut from a slab, every
# string from an arena) and through the shared path (2, 2, 1, 1, 1 and 2).
# Last, TCPSendBatched is the link sender's throughput: heartbeats injected
# on one loopback TCP link ahead of its sender, which coalesces what is
# queued into one vectored write (msgs/sec), and NewTCPCluster what a
# three-process TCP cluster of idle automatons costs to build, Start and
# Stop (≈8 KB/op: no link reserves its bound).
#
# The gate (scripts/bench-micro.sh): these must report 0 allocs/op at the
# run's BENCHTIME, and the target fails when one reports more or does not
# run — SinkRecordSend, Wire*Encode, WorldMessagePath,
# FabricSendSteadyState (0 B/op too for the first and the last of these),
# EnvelopeVarint both ways and EnvelopeVarintVector/encode, ConnDecode
# through the connection's decoder, the four bookkeeping benches,
# FollowerCommit, Phase2Round, SubmitWithBacklog, LeaseReadTurn,
# StationTurn and NewKernel/Reset. TCPSendBatched is left off: it reads 2
# allocs/op at 100x and 0 at 10,000x — what it allocates is per run, not
# per injection, and b.N amortises it.
# BENCHTIME is go test's -benchtime; CI passes 100x, which runs each
# benchmark a hundred times — go test compiles them but never runs one, so
# a benchmark that panics would otherwise pass. At 1x a benchmark that
# amortises its set-up over b.N prints the set-up's allocations instead of
# its steady state (RecorderRecord 10 allocs/op, FollowerCommit 14); at
# 100x each of them prints its 0 allocs/op.
BENCHTIME ?= 1s
bench-micro:
	GO=$(GO) BENCHTIME=$(BENCHTIME) bash scripts/bench-micro.sh

# How often a test fails run alone (make flake-count RUN=<regex> N=20
# [PKG=./internal/transport]; N defaults to 10, as for bench-pairs): the
# package's test binary built once and run N times, one process each,
# with a line a run (the first _test.go: line of each failure) and the
# steal ticks the host gained over the batch (scripts/flake-count.sh).
# It reports and never fails; CI does not run it.
PKG ?= ./internal/transport
flake-count:
	bash scripts/flake-count.sh '$(RUN)' $(N) $(PKG)

# End-to-end tracing smoke (DESIGN.md §8), one leg per runtime, each read
# back by traceview on the same path: a traced chaossoak kill -9 drill
# over TCP, then a simulated omegasim run whose leader p0 crashes at
# 300 ms. -require-request gates on at least one complete
# request→queue→quorum→apply chain; -require-election gates on a captured
# leader election.
trace-smoke:
	$(GO) build -o /tmp/chaossoak-trace ./cmd/chaossoak
	$(GO) build -o /tmp/omegasim-trace ./cmd/omegasim
	$(GO) build -o /tmp/traceview-smoke ./cmd/traceview
	rm -rf /tmp/trace-smoke && mkdir -p /tmp/trace-smoke
	/tmp/chaossoak-trace -n 3 -trace-dir /tmp/trace-smoke/soak
	/tmp/traceview-smoke -require-request -require-election -chrome /tmp/trace-smoke/soak.chrome.json /tmp/trace-smoke/soak
	/tmp/omegasim-trace -crash 0@300ms -trace-dir /tmp/trace-smoke/sim
	/tmp/traceview-smoke -require-election /tmp/trace-smoke/sim

# Regenerate EXPERIMENTS.md-style tables at full size.
tables:
	$(GO) run ./cmd/benchtables
