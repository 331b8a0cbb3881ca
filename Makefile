GO ?= go

.PHONY: build test race vet lint lint-ratchet bench bench-sim bench-parallel bench-json bench-check \
	fmt check verify fuzz-smoke cover cover-check serve-smoke perfbench-test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Project-specific determinism/hygiene analyzers (internal/analysis,
# DESIGN.md §11). Exits nonzero on any unsuppressed finding.
lint:
	$(GO) run ./cmd/leodivide-lint ./...

# The CI lint gate: full suite plus the suppression ratchet (the
# //lint:ignore count must equal LINT_SUPPRESSIONS exactly — spend the
# budget down in the same change that retires a suppression) and the
# committed wall-time ceiling. Writes the lint.json report artifact.
lint-ratchet:
	$(GO) run ./cmd/leodivide-lint -out lint.json \
		-ratchet LINT_SUPPRESSIONS -time-budget LINT_TIME_BUDGET ./...

# The full reproduction benchmarks (one per paper table/figure).
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# The simulator: one epoch's visibility sweep over the national map, and
# a two-epoch sim.Run end to end.
bench-sim:
	$(GO) test -bench BenchmarkVisibleSats -run '^$$' ./internal/sim
	$(GO) test -bench BenchmarkSimCoverage -benchtime 3x -run '^$$' .

# Serial vs pooled comparison for the parallel execution engine.
bench-parallel:
	$(GO) test -bench BenchmarkParallelSpeedup -benchtime 5x -run '^$$' .

# Machine-readable bench report (internal/benchfmt schema). Override
# BENCH_SCALE / BENCH_WORKERS / BENCH_REPS / BENCH_OUT for other
# sweeps; CI runs this at small scale and validates the artifact with
# `bench -check`. Reps default to 3 so per-dataset stage warm-up (the
# stage memo, internal/memo) is amortized the way a sweep amortizes it.
BENCH_SCALE ?= 0.05
BENCH_WORKERS ?= 1,2
BENCH_REPS ?= 3
BENCH_OUT ?= BENCH_latest.json
bench-json:
	$(GO) run ./cmd/leodivide -scale $(BENCH_SCALE) bench \
		-workers $(BENCH_WORKERS) -reps $(BENCH_REPS) -out $(BENCH_OUT)
	$(GO) run ./cmd/leodivide bench -check $(BENCH_OUT)

# Regression tripwire against the committed baseline: re-measure the
# sweep-heavy experiments at the baseline's scale and fail on any cell
# more than BENCH_MAX_REGRESS slower. The staged sweep experiments now
# run in microseconds, so the check uses many reps to push the
# measurement above scheduler noise; even so, wall-clock comparison
# catches step changes (a dropped cache, an accidental quadratic), not
# percent-level drift.
BENCH_MAX_REGRESS ?= 0.20
BENCH_CHECK_REPS ?= 30
bench-check:
	$(GO) run ./cmd/leodivide -scale 0.25 bench -workers 1 \
		-reps $(BENCH_CHECK_REPS) -experiments table2,fig2,fig3,fleets,busyhour \
		-out BENCH_check.json \
		-against BENCH_baseline.json -max-regress $(BENCH_MAX_REGRESS)

fmt:
	gofmt -s -l -w .

# Replay the committed golden corpus; exits nonzero on drift.
verify:
	$(GO) run ./cmd/leodivide verify

# perfbench/ is a nested module, so ./... never compiles it: vet and
# unit-test it here so a library API change cannot silently break the
# benchmark. Runs no workload.
perfbench-test:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# End-to-end smoke of the scenario-query server: start `leodivide
# serve` on a small dataset in the background, drive it with loadgen
# (which polls /healthz until the dataset is ready), and require zero
# request errors plus a nonzero cache hit rate. Override SERVE_* to
# change the load shape.
SERVE_SCALE ?= 0.02
SERVE_ADDR ?= 127.0.0.1:8931
SERVE_N ?= 200
SERVE_CONCURRENCY ?= 16
serve-smoke:
	$(GO) build -o leodivide-smoke ./cmd/leodivide
	./leodivide-smoke -scale $(SERVE_SCALE) serve -addr $(SERVE_ADDR) & \
	server_pid=$$!; \
	trap 'kill $$server_pid 2>/dev/null' EXIT; \
	./leodivide-smoke loadgen -addr $(SERVE_ADDR) -n $(SERVE_N) \
		-concurrency $(SERVE_CONCURRENCY) -wait 120s -min-hit-rate 0.05; \
	status=$$?; \
	kill $$server_pid 2>/dev/null; wait $$server_pid 2>/dev/null; \
	rm -f leodivide-smoke; \
	exit $$status

# Short fuzzing pass over every fuzz target, FUZZ_TIME each. The seed
# corpora live under <pkg>/testdata/fuzz/<FuzzName>/ and also run as
# plain test cases in every `go test`. Go only allows one matching
# -fuzz target per invocation, hence one line per target.
FUZZ_TIME ?= 5s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadLocationsCSV$$' -fuzztime $(FUZZ_TIME) ./internal/bdc
	$(GO) test -run '^$$' -fuzz '^FuzzReadProviderCSV$$' -fuzztime $(FUZZ_TIME) ./internal/bdc
	$(GO) test -run '^$$' -fuzz '^FuzzReadCellsCSV$$' -fuzztime $(FUZZ_TIME) ./internal/bdc
	$(GO) test -run '^$$' -fuzz '^FuzzFromToken$$' -fuzztime $(FUZZ_TIME) ./internal/hexgrid
	$(GO) test -run '^$$' -fuzz '^FuzzLatLngToCell$$' -fuzztime $(FUZZ_TIME) ./internal/hexgrid
	$(GO) test -run '^$$' -fuzz '^FuzzCellsInBox$$' -fuzztime $(FUZZ_TIME) ./internal/hexgrid
	$(GO) test -run '^$$' -fuzz '^FuzzRegionSpec$$' -fuzztime $(FUZZ_TIME) ./internal/region
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioRequest$$' -fuzztime $(FUZZ_TIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioHandler$$' -fuzztime $(FUZZ_TIME) ./internal/serve

# Coverage with a checked-in floor (COVERAGE_FLOOR, percent). The floor
# sits ~1pt under the measured total because worker-occupancy branches
# in internal/par make exact coverage scheduling-dependent.
cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

cover-check: cover
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}'); \
	floor=$$(cat COVERAGE_FLOOR); \
	echo "coverage: $$total% (floor: $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
		{ echo "coverage $$total% fell below the checked-in floor $$floor%"; exit 1; }

check: build vet lint test
