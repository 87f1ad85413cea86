GO ?= go
FUZZTIME ?= 10s
STATICCHECK ?= staticcheck
GOVULNCHECK ?= govulncheck
COVERPROFILE ?= cover.out
BENCHCOUNT ?= 5

.PHONY: all build vet test test-nosimd test-race test-shuffle fuzz bench bench-svm bench-svm-json bench-scan bench-scan-json bench-scan-incremental bench-train bench-train-json bench-extract bench-extract-json bench-e2e docs-check check lint cover cover-check e2e

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full suite with the accelerated simd kernels disabled: everything must
# pass — and produce identical artifacts — on the portable reference paths
# (mirrors the CI nosimd lane).
test-nosimd:
	HOTSPOT_NOSIMD=1 $(GO) test ./...

# Full race-detector pass; the core end-to-end tests dominate the runtime
# (well past go test's default 10m per-package timeout under -race).
test-race:
	$(GO) test -race -timeout 45m ./...

# Order-independence pass: shuffle test execution order and run everything
# twice, flushing out inter-test state leaks and one-shot fixtures that
# only pass in file order.
test-shuffle:
	$(GO) test -shuffle=on -count=2 -timeout 30m ./...

# Short coverage-guided fuzz smoke on both targets (seeds always run as
# part of `make test`; this explores beyond them).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzClipJSONRoundTrip -fuzztime=$(FUZZTIME) ./internal/clip/
	$(GO) test -run='^$$' -fuzz=FuzzDirectionalStrings -fuzztime=$(FUZZTIME) ./internal/topo/

# Observability overhead guardrails (instrumented vs uninstrumented).
bench:
	$(GO) test -run='^$$' -bench='Instrumented' -benchtime=1x .

# SVM fast-path microbenchmarks (flat layout, batched decisions, SMO with
# shrinking). BENCHCOUNT repetitions make the output benchstat-ready; CI
# compares it against the committed bench-svm-baseline.txt.
bench-svm:
	$(GO) test -run='^$$' -bench='BenchmarkSMOSolve|BenchmarkDecisionBatch' \
		-count=$(BENCHCOUNT) ./internal/svm/

# Regenerate BENCH_svm.json (the repo-root before/after numbers quoted in
# README.md; see EXPERIMENTS.md).
bench-svm-json:
	HOTSPOT_BENCH_JSON=1 $(GO) test -run TestWriteBenchSVMJSON -count=1 ./internal/svm/

# Tiled-scan pipeline benchmarks (monolithic vs tiled vs GDS-sourced).
# bench-scan-baseline.txt is the committed benchstat baseline; refresh it
# from a quiet machine when the numbers move for a good reason.
bench-scan:
	$(GO) test -run='^$$' -bench='BenchmarkScanTiled' -benchtime=2x \
		-count=$(BENCHCOUNT) -timeout 40m ./internal/core/

# Regenerate BENCH_scan.json (repo-root whole-scan wall times: monolithic
# detect, tiled, GDS-sourced, incremental cold/warm; the active simd
# dispatch is recorded in the artifact — see EXPERIMENTS.md).
bench-scan-json:
	HOTSPOT_BENCH_JSON=1 $(GO) test -run TestWriteBenchScanJSON -count=1 -timeout 40m ./internal/core/

# Incremental re-scan benchmarks: empty-store fill (cold) vs fully-cached
# re-scan of an unchanged chip (warm). The warm/cold gap is the engine's
# reason to exist; bench-scan-incremental-baseline.txt is the committed
# benchstat baseline — refresh it from a quiet machine when the numbers
# move for a good reason.
bench-scan-incremental:
	$(GO) test -run='^$$' -bench='BenchmarkScanIncremental' -benchtime=2x \
		-count=$(BENCHCOUNT) -timeout 40m ./internal/core/

# Clip-evaluation fast-path benchmarks (pooled scratch + exact pre-screen
# cascade): steady-state memo-hit, forced-miss, and cascade-disabled
# regimes, reporting ns/clip and allocs/op. bench-extract-baseline.txt is
# the committed pre-fast-path baseline; CI benchstat-diffs fresh runs
# against it and separately hard-fails if the prescreen-hit steady state
# allocates (see the alloc-gate job).
bench-extract:
	$(GO) test -run='^$$' -bench='BenchmarkEvalClipPipeline' \
		-count=$(BENCHCOUNT) -timeout 30m ./internal/core/

# Regenerate BENCH_extract.json (the repo-root fast-path numbers quoted in
# EXPERIMENTS.md).
bench-extract-json:
	HOTSPOT_BENCH_JSON=1 $(GO) test -run TestWriteBenchExtractJSON -count=1 -timeout 30m ./internal/core/

# Cross-validated model-selection benchmarks (full per-group search on the
# committed train fixture corpus, all-CPU vs serial). The committed
# benchstat baseline is bench-train-baseline.txt; refresh it from a quiet
# machine when the numbers move for a good reason.
bench-train:
	$(GO) test -run='^$$' -bench='BenchmarkCrossValidate' \
		-count=$(BENCHCOUNT) -timeout 30m ./internal/train/

# Regenerate BENCH_train.json (repo-root cross-validated model-selection
# wall times, parallel vs serial, with the simd dispatch recorded — see
# EXPERIMENTS.md).
bench-train-json:
	HOTSPOT_BENCH_JSON=1 $(GO) test -run TestWriteBenchTrainJSON -count=1 -timeout 30m ./internal/train/

# End-to-end benchmark (e2ebench/, declared in BENCHMARK.json): every
# workload on inputs generated from E2E_SEED for BENCHMARK.json's 25 s
# run, each printing one JSON line of end-to-end metrics. E2E_TRACE=1
# adds a traced op and the per-layer metrics. Fixtures and the build
# cache go under .bench_build/.
E2E_SEED ?= 1
E2E_TRACE ?= 0
bench-e2e:
	for w in train-b3 scan-b3 rescan-eco; do \
		bash e2ebench/run.sh --workload $$w --seed $(E2E_SEED) \
			--seconds 25 --trace $(E2E_TRACE) || exit 1; \
	done

# Markdown documentation lint: relative links + anchors resolve, curated
# misspelling list (cmd/docscheck, no external tools).
docs-check:
	$(GO) run ./cmd/docscheck .

# Static analysis beyond vet. CI installs the two tools; locally:
#   go install honnef.co/go/tools/cmd/staticcheck@latest
#   go install golang.org/x/vuln/cmd/govulncheck@latest
lint: vet
	$(STATICCHECK) ./...
	$(GOVULNCHECK) ./...

# Atomic-mode coverage profile across every package.
cover:
	$(GO) test -covermode=atomic -coverprofile=$(COVERPROFILE) ./...
	@$(GO) tool cover -func=$(COVERPROFILE) | tail -n 1

# cover-check fails when total coverage drops below the committed baseline
# (coverage-baseline.txt). Raise the baseline when coverage improves; never
# lower it to make a regression pass.
cover-check: cover
	@total=$$($(GO) tool cover -func=$(COVERPROFILE) | awk '/^total:/{sub(/%/,"",$$3); print $$3}'); \
	base=$$(cat coverage-baseline.txt); \
	echo "total coverage: $$total% (baseline: $$base%)"; \
	awk -v t="$$total" -v b="$$base" 'BEGIN{exit !(t+0 >= b+0)}' || { \
		echo "FAIL: coverage $$total% fell below the $$base% baseline"; exit 1; }

# Distributed-scan end-to-end smoke: trains a model, launches two local
# hotspotd backends, runs a distributed scan (including a
# kill-one-backend-mid-scan pass), and diffs the reports against a
# single-process scan. Mirrors the CI `e2e` job.
e2e:
	bash scripts/e2e.sh

check: vet build test test-race fuzz docs-check
