GO ?= go

# snaccbench arguments that regenerate each committed, deterministic
# BENCH_<name>.json. The sweep targets below and bench-check share them.
# BENCH_parallel.json is left out: it records host wall time.
BENCH_FILES = crash tenants serve latency cluster queues
BENCH_ARGS_crash = -run crash
BENCH_ARGS_tenants = -run tenants
BENCH_ARGS_serve = -run serve
BENCH_ARGS_latency = -run latency
BENCH_ARGS_cluster = -run cluster -size 64
BENCH_ARGS_queues = -run queues

.PHONY: build test race vet bench bench-smoke bench-check cover latency faults crash queues perfreport tenants cluster serve

build:
	$(GO) build ./...

# The default test path vets first and includes the targeted race pass, so
# `make test` alone gives the full tier-1 signal.
test: vet
	$(GO) test ./...
	$(MAKE) race
	$(MAKE) bench-smoke
	$(MAKE) bench-check

# Race-checks the experiment engine's rig pool (internal/parallel), the
# kernel/buffer-pool hot paths, the payload packages (page payloads,
# staging memories, the controller's DMA staging), and the
# fault-injection/recovery machinery (including the controller
# crash-recovery ladder and its multi-queue/ring-wrap variants). Race builds
# poison every buffer given back to internal/bufpool and every payload page
# whose last reference is released, so the byte-checked integrity tests
# here also catch a buffer or page used after its return.
race:
	$(GO) test -race ./internal/parallel/... ./internal/sim/... ./internal/bufpool/... ./internal/fault/... ./internal/obs/... ./internal/ethernet/... ./internal/serve/... ./internal/workload/... ./internal/pcie/... ./internal/memmodel/... ./internal/nvme/...
	$(GO) test -race -run 'Fault|Retry|Timeout|CQE|Crash|Breaker|Death|CFS|Degraded|Span|Wrap|MultiQueue|Tenant' ./internal/streamer/
	$(GO) test -race -run 'TestServeFacade' .
	$(GO) test -race -run 'TestParallelDeterminism' ./internal/bench/
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
	$(GO) run ./cmd/snaccbench $(BENCH_ARGS_latency)

# Microbenchmarks: kernel scheduling (events/sec, allocs/op), process
# hand-offs (Sleep, Chan ping-pong), end-to-end streamer reads (4 KiB and
# 1 MiB) and the functional 4 MiB write + read round trip (bytes allocated
# per trip).
bench:
	$(GO) test -run XXX -bench 'BenchmarkKernel|BenchmarkProc' -benchmem ./internal/sim/
	$(GO) test -run XXX -bench BenchmarkStreamerRead -benchmem ./internal/bench/
	$(GO) test -run XXX -bench BenchmarkFunctionalRoundTrip4M -benchmem .

# One-iteration pass over the kernel and process micro-benchmarks under the
# race detector: catches data races and bit-rot on the scheduling and
# hand-off hot paths without the cost of a real measurement run. Wired into
# `make test`.
bench-smoke: vet
	$(GO) test -race -run XXX -bench 'BenchmarkKernel|BenchmarkProc' -benchtime 1x -benchmem ./internal/sim/

# Regenerates every deterministic BENCH file into a temp dir with the sweep
# targets' arguments and compares each byte for byte with the committed
# copy: a change that shifts a committed number fails here until the file
# is regenerated and committed with it. Wired into `make test`.
bench-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/snaccbench" ./cmd/snaccbench && \
	$(foreach n,$(BENCH_FILES),(cd "$$tmp" && ./snaccbench $(BENCH_ARGS_$(n)) > /dev/null) && \
		cmp BENCH_$(n).json "$$tmp/BENCH_$(n).json" && echo "BENCH_$(n).json matches" && ) true

# Fault-injection suite: recovery unit tests, accounting invariants, and the
# goodput-vs-error-rate sweep.
faults:
	$(GO) test -run 'Fault|Retry|Timeout|CQE|InvalidCompletion' ./internal/fault/ ./internal/streamer/ ./internal/bench/ .
	$(GO) run ./cmd/snaccbench -run faults

# Controller-crash suite: recovery-ladder unit tests (breaker, reset,
# replay, degraded striping, crash data integrity) and the goodput/MTTR
# sweep -> BENCH_crash.json
crash:
	$(GO) test -run 'Crash|Breaker|Death|CFS|Degraded|Removal' ./internal/nvme/ ./internal/streamer/ ./internal/bench/ .
	$(GO) run ./cmd/snaccbench $(BENCH_ARGS_crash)

# Multi-queue submission suite: ring-wrap and crash/integrity tests at
# IOQueues > 1, then the IOPS-vs-queues×batch sweep -> BENCH_queues.json
queues:
	$(GO) test -run 'Wrap|MultiQueue|RandomizedDataIntegrity' ./internal/streamer/ .
	$(GO) run ./cmd/snaccbench $(BENCH_ARGS_queues)

# Multi-tenant QoS suite: hub scheduling/isolation unit tests plus the
# noisy-neighbor sweep (victim vs aggressor, DRR vs FIFO) -> BENCH_tenants.json
tenants:
	$(GO) test -run 'Tenant' ./internal/streamer/ ./internal/bench/ .
	$(GO) run ./cmd/snaccbench $(BENCH_ARGS_tenants)

# Serving-tier suite: frame-codec/conn-table/backpressure unit tests (the
# invariant test also runs under -race via the race target), the open-loop
# workload generator, and the client-population sweep -> BENCH_serve.json
serve:
	$(GO) test ./internal/serve/ ./internal/workload/
	$(GO) test -run 'TestServe' ./internal/bench/ .
	$(GO) run ./cmd/snaccbench $(BENCH_ARGS_serve)

# Replicated-cluster suite: failover/re-replication/rejoin unit tests, the
# kill-a-node data-integrity property, and the nodes×R×quorum sweep plus
# availability timeline -> BENCH_cluster.json
cluster:
	$(GO) test ./internal/cluster/
	$(GO) test -run 'TestClusterRandomizedDataIntegrity' .
	$(GO) run ./cmd/snaccbench $(BENCH_ARGS_cluster)

# Serial-vs-parallel suite wall time + kernel throughput -> BENCH_parallel.json
perfreport:
	$(GO) run ./cmd/snaccbench -run perfreport
