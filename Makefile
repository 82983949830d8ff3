GO ?= go

.PHONY: build fmt cross test vet staticcheck race bench bench-kernels bench-fleet bench-compare bench-loadgen bench-coop bench-scenarios bench-pressure fuzz-smoke loc footprint edgebench-check check

build:
	$(GO) build ./...

# gofmt gate: fails listing every Go file gofmt would rewrite. Files
# come from git (tracked plus untracked-but-not-ignored), so build
# output under ignored directories is never scanned.
fmt:
	@out=$$(git ls-files -co --exclude-standard -- '*.go' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Cross-compile smoke for the edge targets the paper deploys to: 32-bit
# Arm (Pi Pico toolchains, armv7 Linux), arm64, and 386. Catches
# 64-bit-only assumptions — int-sized constants, alignment — that amd64
# CI would never see. The vet runs type-check every test file and every
# non-amd64 kernel stub on the two 32-bit targets too. The 386 test run
# executes natively on an amd64 Linux host and covers every internal
# package but two:
#   - internal/eval: TestPressureMatrix asserts that the f32 demotion
#     outruns f64, a premise built on the amd64 SIMD kernels;
#   - internal/pool: TestPoolSaveBytesPinned's pinned bytes drift with
#     math.Exp off amd64+FMA (ROADMAP item 1), as do the root package's
#     goldens, which is why the root package is left out too.
CROSS_386_SKIP = -e '/internal/eval$$' -e '/internal/pool$$'
cross:
	GOOS=linux GOARCH=arm $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=386 $(GO) build ./...
	GOOS=linux GOARCH=arm $(GO) vet ./...
	GOOS=linux GOARCH=386 $(GO) vet ./...
	GOOS=linux GOARCH=386 $(GO) test $$($(GO) list ./internal/... | grep -v $(CROSS_386_SKIP))

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# edgebench is a module of its own (the benchmark harness), so the
# root's `go test ./...` never reaches it. It imports the internal
# packages, so vet and test it here: a signature change there then
# fails the gate instead of the next benchmark run.
edgebench-check:
	cd edgebench && $(GO) vet ./... && $(GO) test ./...

# Deeper static analysis. Gated on the binary being installed so the
# gate still runs on boxes without it (CI installs it explicitly):
# `go install honnef.co/go/tools/cmd/staticcheck@latest`.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# The packages with concurrency: the experiment worker pool (eval) and
# the sharded multi-stream fleet. core exercises model+eval
# transitively; the root package holds the concurrent Fleet integration
# tests. wire/shard/router are the
# distributed serve tier — the router test is the end-to-end shard
# migration integration test, so it runs under the detector too.
# pressure holds the governor that ticks inside the shard's loop.
# oselm and model hold the scratch lists that models of one shape
# borrow their working sets from across goroutines.
race:
	$(GO) test -race ./internal/oselm/... ./internal/model/... ./internal/eval/... ./internal/core/... ./internal/fleet/... ./internal/wire/... ./internal/shard/... ./internal/router/... ./internal/pressure/... .

# Kernel and hot-path micro-benchmarks at the detector's real shapes.
bench-kernels:
	$(GO) test -bench=. -benchmem ./internal/mat/ ./internal/model/ ./internal/oselm/

# Paper-table macro benchmarks (regenerates every artifact end to end).
bench:
	$(GO) test -bench=. -benchmem .

# Multi-stream fleet throughput: NSL-KDD replayed as K interleaved
# streams, exercising the parallel path and a non-default shard count.
bench-fleet:
	$(GO) run ./cmd/driftbench fleet -streams 64 -shards 16 -parallel 0
	$(GO) run ./cmd/driftbench fleet -streams 8 -shards 4 -parallel 4

# Before/after comparison of the scoring hot path for perf PRs:
# benchmarks the working tree against BENCH_BASE (default HEAD) with
# -count=$(BENCH_COUNT) repetitions and diffs via benchstat. Warn-only
# by design — a missing benchstat binary, an unbenchmarkable base, or a
# regression all print rather than fail, because micro-benchmark noise
# on shared CI runners must never block a merge; read the report.
# Outputs land in $(BENCH_DIR) (bench-old.txt, bench-new.txt,
# benchstat.txt) for artifact upload.
BENCH_BASE ?= HEAD
BENCH_COUNT ?= 10
BENCH_PATTERN ?= 'BenchmarkScore$$|BenchmarkScorePrecision|BenchmarkPredictTrain$$|BenchmarkRunningMeanUpdateL1Dist$$|BenchmarkMulVec$$|BenchmarkMulVecTrans$$|BenchmarkAddScaledOuterBeta$$|BenchmarkAllFinite$$|BenchmarkMonitorClone$$|BenchmarkLoadMonitor$$|BenchmarkLoadFleet$$'
BENCH_PKGS ?= ./internal/oselm/ ./internal/model/ ./internal/mat/ .
BENCH_DIR ?= bench-out
bench-compare:
	@mkdir -p $(BENCH_DIR)
	@$(GO) test -run '^$$' -bench $(BENCH_PATTERN) -count=$(BENCH_COUNT) \
		$(BENCH_PKGS) > $(BENCH_DIR)/bench-new.txt || \
		{ cat $(BENCH_DIR)/bench-new.txt; echo "bench-compare: head bench failed (warn-only)"; }
	@base=$$(mktemp -d) && \
	if git worktree add -q $$base/tree $(BENCH_BASE) 2>/dev/null; then \
		( cd $$base/tree && $(GO) test -run '^$$' -bench $(BENCH_PATTERN) -count=$(BENCH_COUNT) \
			$(BENCH_PKGS) > $(CURDIR)/$(BENCH_DIR)/bench-old.txt ) || \
			echo "bench-compare: base bench failed (warn-only; base may predate these benches)"; \
		git worktree remove --force $$base/tree; \
	else \
		echo "bench-compare: cannot materialise base $(BENCH_BASE) (warn-only)"; \
	fi; \
	rm -rf $$base
	@if command -v benchstat >/dev/null 2>&1 && [ -s $(BENCH_DIR)/bench-old.txt ]; then \
		benchstat $(BENCH_DIR)/bench-old.txt $(BENCH_DIR)/bench-new.txt | tee $(BENCH_DIR)/benchstat.txt; \
	else \
		echo "benchstat unavailable or no base run; raw results in $(BENCH_DIR)/ (go install golang.org/x/perf/cmd/benchstat@latest)" | tee $(BENCH_DIR)/benchstat.txt; \
	fi

# Distributed serve tier scaling curve: spawn 1/2/4 shard processes
# behind the consistent-hash router, drive pipelined synthetic streams
# through them (with one live migration per multi-shard point), and
# write aggregate samples/s + p99 ingest latency as the BENCH_7
# artifact. Sized down from the defaults to stay CI-friendly.
bench-loadgen:
	$(GO) build -o bin/driftbench ./cmd/driftbench
	./bin/driftbench loadgen -shard-range 1,2,4 -streams 16 -samples 20480 -json BENCH_7.json

# Cooperative vs per-stream drift recovery on the cooling-fan
# scenarios: cold rebuild against warm-seeding from the closed-form
# merge of adapted cohort peers, written as the BENCH_8 artifact. Exits
# non-zero if warm recovery converged slower than cold (both-zero
# passes: nothing left to beat when cold is already instantaneous).
bench-coop:
	$(GO) run ./cmd/driftbench coop -json BENCH_8.json

# Label-delay scenario matrix: {delay × budget × drift type × detector
# mode} on the cooling-fan streams — unsupervised baseline, hybrid
# DDM fusion fed late labels, and the reoccurring-drift model pool —
# written as the BENCH_9 artifact. Exits non-zero unless the pooled
# restore beats the cold rebuild on reoccurring drift and stays a
# bystander on sudden drift.
bench-scenarios:
	$(GO) run ./cmd/driftbench scenarios -json BENCH_9.json

# Adaptive-capacity forced-degradation matrix: each Table 2/3 stream
# replayed at every degradation level the governor can force (f64
# baseline, demoted-f32, demoted-q16), reporting throughput and
# detection-quality deltas as the BENCH_10 artifact. Exits non-zero if
# the golden gate fails — a demote→promote excursion must leave the
# full-precision path bit-exactly untouched.
bench-pressure:
	$(GO) run ./cmd/driftbench pressure -json BENCH_10.json

# Short fuzz passes over every deserialiser: corrupt or truncated
# artifacts must fail with ErrBadFormat, and malformed network frames
# with ErrProtocol, never panic. `go test -fuzz` takes one target per
# invocation, hence one run per format. Minimising a new-coverage input
# tries every removable byte range, O(n²) runs for an n-byte artifact:
# under the default 60 s budget the root targets' ~700-byte seeds spent
# the whole 10 s in one minimisation, so each is capped at 1 s.
FUZZ_FLAGS = -fuzztime=10s -fuzzminimizetime=1s
fuzz-smoke:
	$(GO) test -fuzz=FuzzLoad $(FUZZ_FLAGS) ./internal/oselm/
	$(GO) test -fuzz=FuzzLoadState $(FUZZ_FLAGS) ./internal/core/
	$(GO) test -fuzz=FuzzLoadPool $(FUZZ_FLAGS) ./internal/pool/
	$(GO) test -fuzz=FuzzLoadMonitor $(FUZZ_FLAGS) ./internal/fixed/
	$(GO) test -fuzz=FuzzLoadMonitor $(FUZZ_FLAGS) .
	$(GO) test -fuzz=FuzzLoadFleet $(FUZZ_FLAGS) .
	$(GO) test -fuzz=FuzzParseFrame $(FUZZ_FLAGS) ./internal/wire/

# Per-member cost at the NSL-KDD (D=38) and fan (D=511) shapes: the
# allocations and bytes of one Monitor.Clone and the live-heap growth of
# a clone registered into a fleet, as the footprint tests log them, and
# the detector's size class.
footprint:
	$(GO) test -count=1 -v -run '^(TestMonitorCloneFootprint|TestCloneHeapGrowthPerMember|TestDetectorFitsItsSizeClass)$$' . ./internal/core/

# Code size, in lines, outside the edgebench/ module: non-test Go,
# amd64 assembly (.s and .h) and test Go. Files come from git (tracked
# plus untracked-but-not-ignored), like the fmt gate.
LOC_FILES = git ls-files -co --exclude-standard -z --
loc:
	@printf 'non-test Go  %s\n' $$($(LOC_FILES) '*.go' ':!:*_test.go' ':!:edgebench/' | xargs -0 cat | wc -l)
	@printf 'assembly     %s\n' $$($(LOC_FILES) '*.s' '*.h' ':!:edgebench/' | xargs -0 cat | wc -l)
	@printf 'test Go      %s\n' $$($(LOC_FILES) '*_test.go' ':!:edgebench/' | xargs -0 cat | wc -l)

# The full pre-merge gate: gofmt, tier-1 plus the arm/arm64/386
# cross-compile and 32-bit vet, static analysis, the edgebench module's
# vet and tests, the race detector over the concurrent packages, and a
# fuzz smoke over the artifact loaders.
check: fmt build cross vet staticcheck test edgebench-check race fuzz-smoke
