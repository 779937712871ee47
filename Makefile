# Targets mirror .github/workflows/ci.yml: `make ci` runs exactly what CI
# runs, so a green local run means a green pipeline.

GO ?= go
SHELL := /bin/bash

.PHONY: build test benchmark-test examples race bench bench-diff microbench chaos loadlab fuzz fmt vet lint ci clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# benchmark/ is its own module — the measurement of record, outside
# `./...` — and compiles against internal/core's exported surface
# (Options, the message types, ReplicaMetrics, StableStore). Vet and test
# it wherever the main module is tested, or a core change rots it unseen.
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The examples are documentation that runs: build all five and run each to
# completion under a 30s timeout (each takes well under a second), so a
# change that breaks one fails the build. Binaries go to a temporary
# directory that is removed afterwards.
EXAMPLES := directory keyspace quickstart repository tcpcluster
examples:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	for e in $(EXAMPLES); do $(GO) build -o "$$dir/$$e" ./examples/$$e || exit 1; done && \
	for e in $(EXAMPLES); do \
		echo "--- examples/$$e"; \
		timeout 30 "$$dir/$$e" || { echo "examples/$$e failed or timed out" >&2; exit 1; }; \
	done

# GOMAXPROCS=4 forces the shard-per-core worker pool to real parallelism —
# worker-ownership races only interleave when workers actually preempt each
# other, and a 1-core runner would otherwise serialize them away.
race:
	GOMAXPROCS=4 $(GO) test -race -count=1 . ./internal/core ./internal/transport ./cmd/esds-server

# Every E1–E17 benchmark body runs exactly once: a harness smoke test, not
# a measurement (the E10–E17 live-transport experiments run their full
# workloads even at 1x). benchjson tees the output and captures every
# metric — sharding speedup, resize windows, core scaling, durable
# throughput, compact-gossip wire efficiency — into the
# BENCH_results.json trajectory artifact. For real numbers drop -benchtime
# or raise it.
bench:
	set -o pipefail; $(GO) test -bench . -benchtime 1x -run '^$$' . | $(GO) run ./cmd/benchjson -o BENCH_results.json

# bench-diff regenerates the benchmark artifact into BENCH_fresh.json and
# fails if any benchmark recorded in the committed BENCH_results.json
# disappeared or stopped emitting one of its metrics — the guard against
# silent harness rot — or if an E12 throughput metric fell more than 20%
# below its committed value, or a bytes/op metric rose more than 20% above
# it (-max-regress: throughput baselines are floors, wire baselines are
# ceilings). The gate is scoped to E12–E17 (-regress-match) because their
# steady-state metrics are stable run-to-run, while windowed metrics like
# E11's mid-migration ops/s swing ±2× on identical code; gate more
# benchmarks as their variance is characterized. E12's speedup ratio is
# machine-normalized and holds anywhere; absolute ops/s are not —
# regenerate BENCH_results.json (make bench) on the slowest machine the
# gate must pass on (this repo commits the 1-core reference container's
# numbers, with each gated throughput metric FLOORED at its minimum over
# repeated runs and each gated bytes/op metric CEILINGED at its maximum,
# so run-to-run jitter cannot trip the 20% band in either direction).
# E13's core-scaling ratio and E14's durable/nosync ratio are bounded by
# hardware (physical cores, fsync latency), so both are reported under
# units ("x-scaling", "x-ratio") the gate ignores; the gated `esds-bench
# -exp e13` / `-exp e14` runs enforce them where they are meaningful.
# E16's bytes/op-compact and bytes/op-legacy are the new wire-efficiency
# trajectory: frame layouts, not machine speed, so the ceiling holds on
# any runner. E17's per-member bytes/op figures are placement-geometry
# quantities and hold anywhere for the same reason. BENCH_fresh.json is a
# scratch comparison artifact, deleted once the diff passes — only the
# committed BENCH_results.json trajectory belongs in the tree.
bench-diff:
	set -o pipefail; $(GO) test -bench . -benchtime 1x -run '^$$' . | $(GO) run ./cmd/benchjson -o BENCH_fresh.json -require BENCH_results.json -max-regress 0.2 -regress-match '^BenchmarkE12|^BenchmarkE13|^BenchmarkE14|^BenchmarkE15|^BenchmarkE16|^BenchmarkE17'
	rm -f BENCH_fresh.json

# Per-layer micro-benchmarks with real iteration counts and allocs/op: the
# data types' transition functions (the directory on a 64-name x 4-key
# state, keyed counters at 16, 256 and 4 096 objects), response-value
# computation (memoized prefix, Fig. 7 recompute, and an unstable suffix
# that never stabilizes), one batch-flush tick over 256 front ends of
# which one is busy, and one incremental gossip delta of 64 operations
# merged into a replica holding a 1k- or 100k-operation history (the
# identifier table's per-id cost), from one client or 64, plain or in the
# compact form (internal/core, whose encoder is unexported), and a stream of frames between two
# loopback TCPNets, a 32-operation request batch, the 32 responses to it,
# or a 64-operation compact gossip delta each (ns and allocations per
# frame), the shipped 4-shard × 3-replica keyspace left idle (cpu-ms/s
# of process CPU: what its tickers cost while nothing happens), one
# collection over a replica holding 100k retained operations (ns per
# runtime.GC() and heap bytes per identifier), and one front end keeping
# 128 operations in flight on the live transport, unbatched and with
# batches of 32 (the batched run reports ops/frame, requests per request
# batch: it falls if a client's stream is split across replicas). Unlike the
# `bench` smoke run these numbers carry information; the CI build job runs
# them at MICROBENCHTIME=100x so they cannot rot.
MICROBENCHTIME ?= 2000x
microbench:
	$(GO) test -run '^$$' -bench 'DataTypeApply|ValueComputation|FrontEndFlush|GossipMerge|TCPNetFrames|IdleKeyspace|RetainedHistoryGC|LivePipelinedSubmit' -benchmem -benchtime $(MICROBENCHTIME) . ./internal/core

# Deterministic fault-injection suite under the race detector: the
# identifier-table invariants checked after every delivery under loss and
# a crash, the prompt-send rule for strict operations (a lone one is
# answered off the gossip tick, overlapping ones ride it, prompt
# frames lost at 10% are recovered, and a prompt send and a tick running
# at once send their frames in order), the gossip loss-liveness cells
# (SimNet loss, and cut TCP connections with a replica killed and
# recovered), the crash/recover/prune chaos matrix (crash timing × option sets × gossip
# loss, including the replay cell for a type with no state encoding and
# the group-commit cell over real FileStableStore journals), the
# concurrent-recoveries cell, the state-transfer and prune×recovery
# regression tests, the range catch-up tests, the FuzzRangeResponse,
# FuzzCompactGossip, FuzzHotFrames and FuzzFileStableStore seed corpora, the
# multi-process SIGKILL restart tests
# (recovery with pruning, and mid-batch durability against the
# group-commit journal), and the
# live-resharding cell (resize under load, with replicas crashing
# mid-migration, and the multi-process -resize admin path), and the
# placement cell (a placed fleet's hosting member killed mid-load and
# recovered from surviving co-hosts, DESIGN.md §13), and the home-failover
# cell (a batched client's home replica cut off under a closed loop: every
# operation answered within two retransmit periods, DESIGN.md §8).
# Seeds are pinned; sweep others with ESDS_CHAOS_SEEDS=7,8,9 make chaos.
# A failing matrix cell shrinks to a minimal reproduction automatically.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestHomeFailover|TestIDTableInvariants|TestIDStreamsMatchMapModel|TestStrictPromptWhenRare|TestStrictRidesIntervalWhenCommon|TestPromptStrictUnderLoss|TestGossipFramesLeaveInOrder|TestGossipLossLiveness|TestGossipReconnectLiveness|TestPruneRecovery|TestSnapshot|TestRecover|TestCrash|TestHostile|TestRange|FuzzRange|FuzzCompact|FuzzHotFrames|FuzzFileStableStore' ./internal/core
	$(GO) test -race -count=1 -run 'TestKillNine|TestResizeAdminAgainstCluster' ./cmd/esds-server
	$(GO) test -race -count=2 -run 'TestResize' ./internal/core

# Hostile-network load lab under the race detector (DESIGN.md §11): the
# open-loop chaos matrix (profile × seed full-stack cells with a mid-run
# resize), the 30%-loss retransmission+batching regression pin, the
# FaultNet determinism/partition tests, and the latency-histogram tests.
# Seeds are pinned; sweep others with ESDS_CHAOS_SEEDS=7,8,9 make loadlab.
# A failing matrix cell shrinks to a minimal reproduction automatically.
loadlab:
	$(GO) test -race -count=1 ./internal/loadlab
	$(GO) test -race -count=1 -run 'TestRetransmitBatchingUnderLoss' ./internal/core
	$(GO) test -race -count=1 -run 'TestFaultNet' ./internal/transport
	$(GO) test -count=1 -run 'TestHist' ./internal/stats

# Native fuzzing of the doors through which another process's bytes reach
# a replica's state: a TCP connection's inbound bytes (preamble, length
# prefixes and the connection's gob stream), range responses delivered to
# a recovering replica,
# the compact gossip decoder, the request and response frame decoders
# (FuzzHotFrames), the stable-store journal a restarting replica
# reloads (torn and corrupt record frames), the Directory and Keyed
# snapshot decoders (which also check their golden encodings first), and
# the Counter, Register, Set, Log and Bank state decoders. go test takes one -fuzz target
# per invocation, so each gets FUZZTIME. The committed seeds already run in
# `make test` and `make chaos`; this explores beyond them. The nightly
# deep-chaos job runs it; FUZZTIME=5m make fuzz for a longer local session.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzTCPInbound$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzRangeResponse$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzCompactGossip$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzHotFrames$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzFileStableStore$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDirectoryState$$' -fuzztime $(FUZZTIME) ./internal/dtype
	$(GO) test -run '^$$' -fuzz '^FuzzKeyedState$$' -fuzztime $(FUZZTIME) ./internal/dtype
	$(GO) test -run '^$$' -fuzz '^FuzzStateDecoders$$' -fuzztime $(FUZZTIME) ./internal/dtype

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint = vet + lintdoc + staticcheck (policy in staticcheck.conf).
# lintdoc fails on any exported symbol of the public esds package without
# a doc comment — the API contract is the godoc. staticcheck is not
# vendored; install with
#   go install honnef.co/go/tools/cmd/staticcheck@2025.1.1
# The CI lint job installs it and fails on findings; locally the target
# degrades to vet-only with a notice when the binary is absent.
lint: vet
	$(GO) run ./cmd/lintdoc .
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; ran go vet only (go install honnef.co/go/tools/cmd/staticcheck@2025.1.1)"; \
	fi

# CI runs the micro-benchmarks as a smoke test (see microbench).
ci: MICROBENCHTIME = 100x
ci: build lint fmt test benchmark-test examples microbench race chaos loadlab bench-diff

clean:
	$(GO) clean
	rm -f *.test *.prof cpu.out mem.out BENCH_fresh.json
