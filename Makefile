GO ?= go

# Fuzz budget per target; fuzz-smoke overrides it for CI (see below).
FUZZTIME ?= 30s

# Coverage floor for the uncertainty-quantification estimators (DESIGN.md §12).
UQ_COVER_MIN ?= 85

.PHONY: all build test vet fmt-check race race-runtime perfbench-test verify shard-verify fault-sweep checkpoint-smoke cli-smoke fuzz fuzz-smoke check cover bench bench-once perf perf-check profile

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fails when any tracked Go file is not gofmt-formatted (untracked build
# output such as .bench_build/ is skipped).
fmt-check:
	@files=$$(gofmt -l $$(git ls-files '*.go')); \
	test -z "$$files" || { echo "gofmt needed:"; echo "$$files"; exit 1; }

# Race-detector pass over the whole tree; exercises the checkerboard tile
# engine and the experiment worker pool under -race.
race:
	$(GO) test -race ./...

# Focused race pass over the solver runtime (the annealing driver and its
# one sweep engine, the tile-engine executor pool and its epoch barrier,
# cancellation, panic-to-error, checkpoint and resume, run log, the
# row-banded table build, the CLIs' shared flags), repeated to shake out
# scheduling-dependent interleavings (DESIGN.md §9), with the checker
# tiles' steady-state allocation test, the windowed code gather's
# exactness property on both gathers and its live-set memo's tests (a
# raised cut index, a 2×2 checkpoint resume). The TestBarrier tests
# force both park paths, run four executors on one P, and cancel or panic
# while executors park or spin.
race-runtime:
	$(GO) test -race -count=3 -run 'TestSolve|TestBarrier|TestRunLog|TestOnSweep|TestSchedule|TestSharded|TestCheckpoint|TestSetTemperature|TestResume|TestBuildTablesBandedMatchesDirect|TestBuildTablesConcurrentCallers|TestBuildTablesColorRuns|TestTablesFirstUse|TestCheckerSweep|TestWindowedGather|TestLiveMemo|TestFlags|TestTimeout|TestStart|TestRegister' ./internal/mrf ./internal/runopt ./internal/apps

# The benchmark harness is its own module (perfbench/go.mod), so the root
# build and test never compile it; vet and test it here so an internal API
# change that breaks the benchmark fails CI.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The chi-square batteries and every row of the byte-exact trace-gate table,
# sharding gates included (DESIGN.md §8). Fails on any distribution
# non-conformance or trace drift.
verify:
	$(GO) run ./cmd/rsu-verify

# Sharding-equivalence gates only (DESIGN.md §15): 1x1-tiling byte-identity
# against the serial goldens, the sharded-vs-monolithic chi-square battery,
# and the sharded checkpoint bit-exact resume.
shard-verify:
	$(GO) run ./cmd/rsu-verify -only-shards

# Device-fault injection smoke (DESIGN.md §13): the compressed degradation
# sweep plus the fault model's determinism suite, both under -race, so CI
# proves the injection path is data-race-free and the one-command artifact
# contract (fault_sweep.json + PGMs) holds.
fault-sweep:
	$(GO) test -race -count=1 -run TestFaultSweepArtifacts ./internal/experiments
	$(GO) test -race -count=1 ./internal/fault
	$(GO) test -race -count=1 -run 'TestFault|TestSPAD' ./internal/mrf ./internal/ret

# Checkpoint kill/resume smoke (DESIGN.md §14): SIGKILL a race-built
# rsu-stereo mid-solve after its first snapshot, resume from the snapshot,
# and require the resumed disparity map to be byte-identical to an
# uninterrupted run — the bit-exact resume guarantee under the harshest
# interruption the OS offers.
checkpoint-smoke:
	./scripts/checkpoint-smoke.sh

# Solver CLI smoke: rsu-stereo, rsu-flow and rsu-segment each run with UQ,
# fault injection, 2x1 tiles and periodic checkpoints, resume bit-exactly
# from a snapshot left by a -timeout cut-off, and reject an invalid -tfloor.
cli-smoke:
	./scripts/cli-smoke.sh

# Whole-tree coverage profile plus a hard floor on internal/uq: the UQ
# estimators feed confidence numbers to users, so untested estimator math is
# a gate failure, not a warning. Writes coverage.out (uploaded by CI).
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out > coverage.txt
	@$(GO) test -count=1 -coverprofile=coverage-uq.out -coverpkg=rsu/internal/uq ./internal/uq > /dev/null
	@pct=$$($(GO) tool cover -func=coverage-uq.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}'); \
	echo "internal/uq coverage: $$pct% (floor $(UQ_COVER_MIN)%)"; \
	awk -v p="$$pct" -v min="$(UQ_COVER_MIN)" 'BEGIN { exit (p+0 >= min+0 ? 0 : 1) }' || \
	{ echo "internal/uq coverage $$pct% is below the $(UQ_COVER_MIN)% floor"; exit 1; }

# Native Go fuzzing of the sampling pipeline, the cut-off-aware sampling
# kernel against the dense pipeline (draw for draw), the lambda converter, the
# checkpoint snapshot decoder (truncation, bit flips, version skew), the
# shard-plan geometry (exclusive full-grid tile coverage under arbitrary
# dimensions), the 8-bit code form of the data term (its exactness
# margin), and the windowed code gather against the dense one (live sets,
# codes and minima, over four passes on one live-set memo). FUZZTIME sets the budget per target (default 30s
# above).
fuzz:
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzUnitSample -fuzztime $(FUZZTIME)
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzLiveKernel -fuzztime $(FUZZTIME)
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzLambdaCode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/shard -run '^$$' -fuzz FuzzShardGeometry -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mrf -run '^$$' -fuzz FuzzCompactSingles -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mrf -run '^$$' -fuzz FuzzWindowedGather -fuzztime $(FUZZTIME)

# Short-budget fuzz pass for CI — the same recipe, smaller budget.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=10s

check: build vet fmt-check test race perfbench-test verify cli-smoke

bench:
	$(GO) test -bench=. -benchmem .

# Single-iteration pass over every micro-benchmark — the CI smoke that keeps
# bench code compiling and running without paying for real measurements.
bench-once:
	$(GO) test -run '^$$' -bench=. -benchtime=1x -benchmem .

# Kernel micro-suite report: every kernel timed against the frozen
# calibration loop (see DESIGN.md §7 for the schema).
perf:
	$(GO) run ./cmd/rsu-bench -perf BENCH_4.json

# Perf-regression gate: re-run the micro suite and compare each kernel's
# calibration-scaled time against the checked-in baseline with a 15%
# tolerance (DESIGN.md §10). Writes the gate report CI uploads as an
# artifact. PERFCHECK_FLAGS lets the CI self-test inject a slowdown
# (-perf-inject-slowdown 2) to prove the gate trips.
perf-check:
	$(GO) run ./cmd/rsu-bench -perf-check BENCH_4.json -perf-report perf-check-report.json $(PERFCHECK_FLAGS)

# CPU + heap profiles of the performance suite (DESIGN.md §11); inspect with
# `go tool pprof cpu.pprof`.
profile:
	$(GO) run ./cmd/rsu-bench -perf /tmp/bench-profile.json -cpuprofile cpu.pprof -memprofile mem.pprof
