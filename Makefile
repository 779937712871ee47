# Targets mirror .github/workflows/ci.yml: `make ci` runs exactly what CI
# runs, so a green local run means a green pipeline.

GO ?= go
SHELL := /bin/bash

.PHONY: build test benchmark-test examples race microbench chaos loadlab fuzz fmt vet lint ci clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# benchmark/ is its own module — the measurement of record, outside
# `./...` — and compiles against internal/core's exported surface
# (Options, the message types, ReplicaMetrics, StableStore). Vet and test
# it wherever the main module is tested, or a core change rots it unseen.
# -count=1: a cached pass of a wall-clock test proves nothing about this run.
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test -count=1 ./...

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
# batch: it falls if a client's stream is split across replicas). The CI
# build job runs them at MICROBENCHTIME=100x so they cannot rot.
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
# resize and a group-commit FileStableStore journal per replica), the 30%-loss retransmission+batching regression pin, the
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
ci: build lint fmt test benchmark-test examples microbench race chaos loadlab

clean:
	$(GO) clean
	rm -f *.test *.prof cpu.out mem.out
