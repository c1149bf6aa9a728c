# Tier-1+ gate for the reproduction (see ROADMAP.md). `make ci` runs
# scripts/ci.sh, the one definition of what the repository considers green:
# vet, build, race + coverage, the fuzz smoke, the benchmark module's tests,
# the bench smoke, the shard, incremental, bisect, store, remote and
# coordinator smokes through real binaries, and the engine benchmark
# record. The other targets run single steps of it by hand.

GO ?= go

.PHONY: ci vet build test race fuzz-smoke perfbench-test bench-smoke bench

ci:
	sh scripts/ci.sh

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The engine is concurrent; everything must be race-clean at every -j.
race:
	$(GO) test -race ./...

# Ten seconds of coverage-guided fuzzing of the store envelope decoder, the
# trust boundary every disk read and remote body crosses.
fuzz-smoke:
	$(GO) test -run NONE -fuzz '^FuzzRemoteDecode$$' -fuzztime 10s ./internal/store

# The benchmark is a module of its own (perfbench/go.mod), so ./... above
# does not reach it: its catalogue and wrapper tests, without the traced
# census (-short).
perfbench-test:
	cd perfbench && $(GO) test -short ./...

# One iteration of the cheap benchmarks: keeps the harness compiling and
# running without paying for the full study regeneration.
bench-smoke:
	$(GO) test -run NONE -bench 'BenchmarkTable3CodeStats|BenchmarkMotivation' -benchtime 1x .

# The full benchmark suite regenerates every table and figure of the paper
# and times the parallel engine (BenchmarkParallelEngineSweep).
bench:
	$(GO) test -run NONE -bench . -benchtime 1x .
