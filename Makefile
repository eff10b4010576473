GO ?= go

.PHONY: build test race vet bench bench-smoke cover latency faults crash queues perfreport kernel tenants cluster serve

build:
	$(GO) build ./...

# The default test path vets first and includes the targeted race pass, so
# `make test` alone gives the full tier-1 signal.
test: vet
	$(GO) test ./...
	$(MAKE) race
	$(MAKE) bench-smoke

# Race-checks the worker pool, the kernel/buffer-pool hot paths it drives,
# and the fault-injection/recovery machinery (including the controller
# crash-recovery ladder and its multi-queue/ring-wrap variants). Race builds
# poison every buffer given back to internal/bufpool, so the byte-checked
# integrity tests here also catch a pooled buffer used after its return.
race:
	$(GO) test -race ./internal/parallel/... ./internal/sim/... ./internal/bufpool/... ./internal/fault/... ./internal/obs/... ./internal/ethernet/... ./internal/serve/... ./internal/workload/...
	$(GO) test -race -run 'Fault|Retry|Timeout|CQE|Crash|Breaker|Death|CFS|Degraded|Span|Wrap|MultiQueue|Tenant' ./internal/streamer/
	$(GO) test -race -run 'KernelWorkers|TestServeFacade' ./internal/casestudy/ .
	$(GO) test -race -run 'TestParallelDeterminism|TestKernelSweep' ./internal/bench/
	$(GO) test -race ./internal/cluster/
	$(GO) test -race -run 'RandomizedDataIntegrity' .

# go vet, then gofmt: any Go file gofmt would change (tracked, or new and not
# ignored) fails the target and is listed.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files --cached --others --exclude-standard '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# Per-package statement coverage, with a ratchet on the packages whose test
# suites this repo leans on hardest: the span tracer, the trace parser, and
# the experiment engine. Raise a floor when its package's coverage rises;
# never lower one to make a change fit.
cover:
	$(GO) test -cover ./... > cover.txt || { cat cover.txt; rm -f cover.txt; exit 1; }
	@cat cover.txt
	@awk '{ pct = $$5; sub(/%/, "", pct) } \
		$$2 == "snacc/internal/obs"      && pct + 0 < 88 { bad = bad "  " $$2 ": " pct "% < 88%\n" } \
		$$2 == "snacc/internal/sim"      && pct + 0 < 90 { bad = bad "  " $$2 ": " pct "% < 90%\n" } \
		$$2 == "snacc/internal/workload" && pct + 0 < 88 { bad = bad "  " $$2 ": " pct "% < 88%\n" } \
		$$2 == "snacc/internal/serve"    && pct + 0 < 85 { bad = bad "  " $$2 ": " pct "% < 85%\n" } \
		$$2 == "snacc/internal/bench"    && pct + 0 < 86 { bad = bad "  " $$2 ": " pct "% < 86%\n" } \
		$$2 == "snacc/internal/streamer" && pct + 0 < 88 { bad = bad "  " $$2 ": " pct "% < 88%\n" } \
		$$2 == "snacc/internal/cluster"  && pct + 0 < 85 { bad = bad "  " $$2 ": " pct "% < 85%\n" } \
		END { if (bad != "") { printf "coverage ratchet failed:\n%s", bad; exit 1 } }' cover.txt
	@rm -f cover.txt

# Per-stage latency percentiles from span tracing -> BENCH_latency.json
latency:
	$(GO) run ./cmd/snaccbench -latency

# Microbenchmarks: kernel scheduling (events/sec, allocs/op), process
# hand-offs (Sleep, Chan ping-pong), end-to-end streamer reads (4 KiB and
# 1 MiB) and the functional 4 MiB write + read round trip (bytes allocated
# per trip).
bench:
	$(GO) test -run XXX -bench 'BenchmarkKernel|BenchmarkProc' -benchmem ./internal/sim/
	$(GO) test -run XXX -bench BenchmarkStreamerRead -benchmem ./internal/bench/
	$(GO) test -run XXX -bench BenchmarkFunctionalRoundTrip4M -benchmem .

# One-iteration pass over the kernel micro-benchmarks under the race
# detector: catches data races and bit-rot on the sharded hot paths without
# the cost of a real measurement run. BenchmarkShardedRing runs the 4-domain
# rig at workers 1, 2, and 4 and cross-checks every iteration's per-domain
# digests against a serial reference, so this pass is also a determinism
# check on the concurrent round loop. Wired into `make test`.
bench-smoke: vet
	$(GO) test -race -run XXX -bench 'BenchmarkKernel|BenchmarkSharded' -benchtime 1x -benchmem ./internal/sim/

# Sharded-kernel worker sweep (events/s, determinism digests) -> BENCH_kernel.json
# The ceiling test first: rounds-per-event on the ring rig must stay below
# the pinned bound, so a regression in the per-domain safe-time sync fails
# here instead of silently inflating the sweep's round counts.
kernel:
	$(GO) test -run 'TestShardRingRoundsCeiling' ./internal/sim/
	$(GO) run ./cmd/snaccbench -kernelworkers 1,2,4

# Fault-injection suite: recovery unit tests, accounting invariants, and the
# goodput-vs-error-rate sweep.
faults:
	$(GO) test -run 'Fault|Retry|Timeout|CQE|InvalidCompletion' ./internal/fault/ ./internal/streamer/ ./internal/bench/ .
	$(GO) run ./cmd/snaccbench -faults

# Controller-crash suite: recovery-ladder unit tests (breaker, reset,
# replay, degraded striping, crash data integrity) and the goodput/MTTR
# sweep -> BENCH_crash.json
crash:
	$(GO) test -run 'Crash|Breaker|Death|CFS|Degraded|Removal' ./internal/nvme/ ./internal/streamer/ ./internal/bench/ .
	$(GO) run ./cmd/snaccbench -crash

# Multi-queue submission suite: ring-wrap and crash/integrity tests at
# IOQueues > 1, then the IOPS-vs-queues×batch sweep -> BENCH_queues.json
queues:
	$(GO) test -run 'Wrap|MultiQueue|RandomizedDataIntegrity' ./internal/streamer/ .
	$(GO) run ./cmd/snaccbench -queues 1,2,4,8

# Multi-tenant QoS suite: hub scheduling/isolation unit tests plus the
# noisy-neighbor sweep (victim vs aggressor, DRR vs FIFO) -> BENCH_tenants.json
tenants:
	$(GO) test -run 'Tenant' ./internal/streamer/ ./internal/bench/ .
	$(GO) run ./cmd/snaccbench -tenants

# Serving-tier suite: frame-codec/conn-table/backpressure unit tests (the
# invariant test also runs under -race via the race target), the open-loop
# workload generator, and the client-population sweep -> BENCH_serve.json
serve:
	$(GO) test ./internal/serve/ ./internal/workload/
	$(GO) test -run 'TestServe' ./internal/bench/ .
	$(GO) run ./cmd/snaccbench -serve

# Replicated-cluster suite: failover/re-replication/rejoin unit tests, the
# kill-a-node data-integrity property, and the nodes×R×quorum sweep plus
# availability timeline -> BENCH_cluster.json
cluster:
	$(GO) test ./internal/cluster/
	$(GO) test -run 'TestClusterRandomizedDataIntegrity' .
	$(GO) run ./cmd/snaccbench -cluster -size 64

# Serial-vs-parallel suite wall time + kernel throughput -> BENCH_parallel.json
perfreport:
	$(GO) run ./cmd/snaccbench -perfreport
