# Tier-1 loop for the ContainerLeaks reproduction. `make check` is what CI
# runs: formatting, vet, build, and the full test suite under the race
# detector (the determinism contract in ARCHITECTURE.md is enforced by
# differential tests + -race together). `make bench` runs the
# serial/parallel benchmark pairs once each so the fan-out speedup is
# measured, not asserted.

GO ?= go

.PHONY: check lint fmt vet build test race fuzz bench bench-full bench-json bench-guard profile chaos chaos-sweep clean

check: fmt vet build race

# Static gate only (no build/test): what CI runs as a separate fast step.
lint: fmt vet

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every Fuzz* target in the module, one after another (go test runs one
# fuzz target per invocation), 10 s each. New inputs that fail land in
# the package's testdata/fuzz/ as regression seeds.
fuzz:
	@set -e; for dir in $$($(GO) list -f '{{.Dir}}' ./...); do \
		for f in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$dir/*_test.go 2>/dev/null); do \
			echo "fuzz $$f ($$dir)"; \
			$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime 10s $$dir; \
		done; \
	done

# Chaos smoke: the three pipelines under deterministic fault injection at
# the paper-scale 2% rate with a fixed seed. Must complete and keep shape
# (Table I renders, synergistic trials land, max ξ < 0.05); the sweep grid
# in EXPERIMENTS.md is the full version.
chaos:
	$(GO) run ./cmd/leakscan -table1 -chaos 0.02 -chaosseed 1
	$(GO) run ./cmd/powersim -fig3 -chaos 0.02 -chaosseed 1
	$(GO) run ./cmd/defensebench -fig8 -chaos 0.02 -chaosseed 1

# Full fault-rate degradation grid (detector / attack / defense).
chaos-sweep:
	$(GO) run ./cmd/defensebench -chaossweep -j 4

# The serial-vs-parallel pairs from README.md's Performance section, plus
# the cold-vs-incremental recurring-scan pair (the epoch engine's speedup).
# -benchtime=1x keeps this cheap enough for CI; drop it for stable numbers.
# Note the incremental variant needs >1 iteration to hit the engine cache,
# so it runs at -benchtime=10x in the measured pair below — and the Fig3
# sweep pair likewise: its first iteration builds and captures the world
# pool, later iterations restore snapshots instead of rebuilding, so 10
# iterations measure the steady state the CLIs and leaksd actually run.
bench:
	$(GO) test -run '^$$' -bench \
		'^(BenchmarkTable1LeakScan|BenchmarkTable1LeakScanParallel)$$' \
		-benchtime=1x .
	$(GO) test -run '^$$' -bench '^(BenchmarkFig3Sweep|BenchmarkFig3SweepParallel)$$' -benchtime=10x .
	$(GO) test -run '^$$' -bench '^BenchmarkRecurringScan(Cold|Incremental)$$' -benchtime=10x .
	$(GO) test -run '^$$' -bench '^BenchmarkMatrixSweep(Cold|Incremental)$$' -benchtime=10x .

# Every table and figure of the paper's evaluation as benchmarks.
bench-full:
	$(GO) test -run '^$$' -bench . -benchmem .

# Machine-readable benchmark report: the serial/parallel pairs, the
# cold/incremental recurring-scan pair, the cold/incremental runtime-
# matrix pair (nine target worlds per sweep — the MatrixSession reuse
# win), the /v1 serving benchmarks (cache-hit, 304, cold render, loadgen
# p99/req/s), the cluster scaling curve (coordinator fan-out at 1/2/4
# workers), and the policy-synthesis pipeline (mine + synthesize +
# verify on CC1), converted to JSON by internal/tools/benchjson and
# archived by CI as BENCH_PR10.json (earlier PRs' reports stay committed
# as history). The Fig3 sweep, recurring, and matrix pairs run 10
# iterations so their steady state dominates ns/op (the sweeps restore
# pooled world snapshots after the first iteration instead of
# rebuilding); the serving hit/load benchmarks run 200k iterations so
# the steady-state cache path dominates (the cold render runs fewer —
# it is three orders of magnitude slower per op); the cluster benchmark
# runs 5 full fleet scans per worker count; the policy pipeline runs 10
# full synthesis+verification passes.
bench-json:
	{ $(GO) test -run '^$$' -bench \
		'^(BenchmarkTable1LeakScan|BenchmarkTable1LeakScanParallel)$$' \
		-benchtime=1x -benchmem . && \
	$(GO) test -run '^$$' -bench '^(BenchmarkFig3Sweep|BenchmarkFig3SweepParallel)$$' \
		-benchtime=10x -benchmem . && \
	$(GO) test -run '^$$' -bench '^BenchmarkRecurringScan(Cold|Incremental)$$' \
		-benchtime=10x -benchmem . && \
	$(GO) test -run '^$$' -bench '^BenchmarkMatrixSweep(Cold|Incremental)$$' \
		-benchtime=10x -benchmem . && \
	$(GO) test -run '^$$' -bench '^BenchmarkV1ResultsHit(304)?$$|^BenchmarkServingLoad$$' \
		-benchtime=200000x -benchmem . && \
	$(GO) test -run '^$$' -bench '^BenchmarkV1ResultsCold$$' \
		-benchtime=2000x -benchmem . && \
	$(GO) test -run '^$$' -bench '^BenchmarkClusterFleet$$' \
		-benchtime=5x -benchmem . && \
	$(GO) test -run '^$$' -bench '^BenchmarkPolicySynthesis$$' \
		-benchtime=10x -benchmem . ; } | $(GO) run ./internal/tools/benchjson -o BENCH_PR10.json
	@echo wrote BENCH_PR10.json

# Benchmark-regression gates against the committed BENCH_PR10.json
# baseline: Fig3Sweep wall time AND allocations (the compute path — the
# time gate pins the snapshot-pool win, the alloc gate the SoA/zero-alloc
# render work; 25% time headroom absorbs CI timer noise over the
# 10-iteration amortized run), the /v1 cache-hit zero-allocation contract
# (max-regress 0 — one allocation fails), the serving p99 (generous 50%
# headroom; CI hosts are noisy timers but a cache-path regression is
# 10x, not 1.5x), the policy-synthesis allocation budget (the POST
# /v1/policies cost), and the warm matrix-sweep allocation budget (the
# session-reuse path leaksd's kind=matrix scans ride). One-sided —
# improvements always pass; refresh the baseline with `make bench-json`
# when an optimization lands.
bench-guard:
	{ $(GO) test -run '^$$' -bench '^BenchmarkFig3Sweep$$' -benchtime=10x -benchmem . && \
	$(GO) test -run '^$$' -bench '^BenchmarkV1ResultsHit(304)?$$|^BenchmarkServingLoad$$' \
		-benchtime=200000x -benchmem . && \
	$(GO) test -run '^$$' -bench '^BenchmarkMatrixSweepIncremental$$' \
		-benchtime=10x -benchmem . && \
	$(GO) test -run '^$$' -bench '^BenchmarkPolicySynthesis$$' \
		-benchtime=10x -benchmem . ; } \
		| $(GO) run ./internal/tools/benchguard -baseline BENCH_PR10.json \
			-gate 'BenchmarkFig3Sweep:ns/op:0.25' \
			-gate 'BenchmarkFig3Sweep:allocs/op:0.10' \
			-gate 'BenchmarkV1ResultsHit:allocs/op:0' \
			-gate 'BenchmarkV1ResultsHit304:allocs/op:0' \
			-gate 'BenchmarkServingLoad:p99-ns:0.50' \
			-gate 'BenchmarkMatrixSweepIncremental:allocs/op:0.10' \
			-gate 'BenchmarkPolicySynthesis:allocs/op:0.10'

# Profile Fig. 3 — the substrate's hottest experiment (the attacker monitor
# sampling loop over the sharded tick pipeline) — and print the top-10 CPU
# and allocation consumers. The same -cpuprofile/-memprofile flags exist on
# leakscan, defensebench, and leaksd for profiling any other workload.
profile:
	@mkdir -p bin
	$(GO) build -o bin/powersim ./cmd/powersim
	./bin/powersim -fig3 -cpuprofile fig3.cpu.pprof -memprofile fig3.mem.pprof > /dev/null
	$(GO) tool pprof -top -nodecount=10 bin/powersim fig3.cpu.pprof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space bin/powersim fig3.mem.pprof

clean:
	$(GO) clean ./...
