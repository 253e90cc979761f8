# DALIA-Go build/verify/bench targets.
#
#   make test       — tier-1 verification: vet + build + full test suite
#   make ci         — the CI pipeline locally: gofmt gate, tier-1, race,
#                     purego fallback, then the non-blocking bench smoke
#   make ci-local   — the full workflow job sequence, including the
#                     GOMAXPROCS race matrix, the chaos suite and the arm64
#                     cross-build — what a green run of
#                     .github/workflows/ci.yml proves, runnable offline
#   make chaos      — the fault-injection suite under -race -count=2; the
#                     test-name regex lives here only (CI calls this target)
#   make bench      — microbenchmarks (testing.B, 1 iteration, with allocs)
#   make bench-smoke— the serve latency benchmark (1 to 64 closed-loop
#                     clients against the HTTP predict path); nothing is
#                     stored or compared
#   make e2e        — the end-to-end benchmark's traced run (≈ 4 s per
#                     workload) on all four workloads at seed 1; it replays
#                     every request along the ‖L⁻¹φ‖² solve route beside
#                     PredictInto and exits non-zero on any failed check
#   make all        — test, bench, bench-smoke and e2e

GO ?= go

E2E_WORKLOADS = fit_uni_gauss fit_tri_gauss fit_bi_poisson serve_predict

.PHONY: all test vet fmt-check race purego chaos bench bench-smoke e2e ci ci-local

all: test bench bench-smoke e2e

fmt-check:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test: vet
	$(GO) build ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Portable path: the amd64 assembly micro-kernel compiled out.
purego:
	$(GO) test -tags purego ./...

# Fault-injection tests, selected by name across the packages that have
# them (`go test -list '<regex>' <pkg>` shows what a package contributes).
# The target fails before running anything when an alternative of
# CHAOS_RUN selects no test in any of CHAOS_PKGS, so a renamed or deleted
# test cannot leave a dead alternative behind.
CHAOS_RUN = Chaos|Fault|Kill|Shrink|Revoke|Corrupt|Dead|Abort|Death|Quarantine|Recovery|Overload|Shutdown|Drain|Panic|Readyz|Torture|Restart|Interrupted
CHAOS_PKGS = ./internal/comm/ ./internal/bta/ ./internal/inla/ ./internal/serve/ ./internal/store/

chaos:
	@names=$$($(GO) test -list . $(CHAOS_PKGS)) || { echo "$$names"; exit 1; }; \
	for alt in $$(echo '$(CHAOS_RUN)' | tr '|' ' '); do \
		echo "$$names" | grep -E '^(Test|Fuzz|Example)' | grep -q "$$alt" || \
			{ echo "chaos: CHAOS_RUN alternative '$$alt' selects no test in $(CHAOS_PKGS)"; exit 1; }; \
	done
	$(GO) test -race -count=2 -run '$(CHAOS_RUN)' $(CHAOS_PKGS)

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./...

# 2,000 requests per client count: enough for p50 and p99 (each with at
# least ten requests beyond it), not for p999.
bench-smoke:
	$(GO) test -run '^$$' -bench PredictLatency -benchtime 2000x ./internal/serve

e2e:
	@for w in $(E2E_WORKLOADS); do \
		echo "== $$w"; \
		out=$$($(GO) run ./benchmark --workload $$w --seed 1 --trace 1) || { echo "$$out" | grep -v '^{'; exit 1; }; \
		echo "$$out" | grep '^checks:'; \
	done

ci: fmt-check test race purego
	-$(MAKE) bench-smoke

# Mirror of the GitHub workflow, job by job: tier1 (with its dalia-scale
# smoke run, the fig5 solver figure at 1, 2 and 4 ranks, the four fast
# examples, the traced benchmark run on all four workloads (e2e) and its one
# pass of the dense kernel (with the elimination and selected-inversion
# steps, BenchmarkBlock/step/… and /invert/…), Q_c assembly (and the naive
# densification it replaced), BTA solver
# (BenchmarkSeqFactorize and BenchmarkSeqSelInv at the uni, tri and serve
# shapes), mode-search, mode-Hessian and snapshot prediction benchmarks),
# race, the race-widths
# GOMAXPROCS matrix
# over the executor and partition packages, the concurrent dense steps that
# share the packing pools and the concurrent snapshot readers, the chaos
# fault-injection suite, the purego fallback with the arm64 cross-build,
# then the non-blocking perf smoke.
ci-local: fmt-check test race
	$(GO) run ./cmd/dalia-scale -workers 1,4,62 -iters 2
	$(GO) run ./cmd/dalia-scale -fig fig5 -workers 1,2,4
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/airpollution
	$(GO) run ./examples/downscaling
	$(GO) run ./examples/diseasecounts
	$(MAKE) e2e
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/dense
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/model
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/bta
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/inla
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/predict
	GOMAXPROCS=2 $(GO) test -race -count=1 ./internal/sched/ ./internal/dense/ ./internal/bta/ ./internal/comm/ ./internal/inla/ ./internal/predict/ ./internal/serve/
	GOMAXPROCS=8 $(GO) test -race -count=1 ./internal/sched/ ./internal/dense/ ./internal/bta/ ./internal/comm/ ./internal/inla/ ./internal/predict/ ./internal/serve/
	$(MAKE) chaos
	$(GO) test -count=1 -run 'CrashRestartRecovery' ./cmd/dalia-serve/
	$(GO) test -tags purego ./...
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	-$(MAKE) bench-smoke
