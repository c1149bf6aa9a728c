# Tier-1+ gate for the reproduction (see ROADMAP.md). `make ci` is what the
# repository considers green; scripts/ci.sh is the same gate as a script.

GO ?= go

.PHONY: ci vet build test race perfbench-test bench-smoke bench shard-smoke incremental-smoke remote-smoke coord-smoke bench-shard

ci: vet build race perfbench-test bench-smoke shard-smoke incremental-smoke remote-smoke coord-smoke bench-shard

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The engine is concurrent; everything must be race-clean at every -j.
race:
	$(GO) test -race ./...

# The benchmark is a module of its own (perfbench/go.mod), so ./... above
# does not reach it: its catalogue and wrapper tests, without the traced
# census (-short).
perfbench-test:
	cd perfbench && $(GO) test -short ./...

# One iteration of the cheap benchmarks: keeps the harness compiling and
# running without paying for the full study regeneration.
bench-smoke:
	$(GO) test -run NONE -bench 'BenchmarkTable3CodeStats|BenchmarkMotivation' -benchtime 1x .

# The distributed protocol end to end through real binaries: quickstart as
# 2 shards + merge must be byte-identical to the unsharded run.
shard-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/quickstart ./examples/quickstart && \
	$$tmp/quickstart >$$tmp/unsharded.txt && \
	$$tmp/quickstart -shard 0/2 -shard-out $$tmp/s0.json && \
	$$tmp/quickstart -shard 1/2 -shard-out $$tmp/s1.json && \
	$$tmp/quickstart -merge $$tmp/s0.json,$$tmp/s1.json >$$tmp/merged.txt && \
	diff $$tmp/unsharded.txt $$tmp/merged.txt && echo "shard smoke: byte-identical"

# The incremental-campaign engine end to end: a one-flag mutation of the
# quickstart warm-started from its own baseline must report exactly the
# mutated cells, the same-command re-export must diff empty offline, and
# gc must prune only the superseded generation. (scripts/ci.sh runs the
# same smoke plus manifest-protection checks and the coverage record.)
incremental-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/quickstart ./examples/quickstart && \
	$(GO) build -o $$tmp/flit ./cmd/flit && \
	$$tmp/quickstart -shard 0/1 -shard-out $$tmp/gen1.json && \
	$$tmp/quickstart -unroll -warm-start $$tmp/gen1.json | grep 'delta: new=1 dropped=1 changed=0' && \
	$$tmp/quickstart -shard 0/1 -shard-out $$tmp/gen2.json && \
	$$tmp/flit delta -baseline $$tmp/gen1.json $$tmp/gen2.json | grep 'delta: new=0 dropped=0 changed=0' && \
	$$tmp/flit gc -dir $$tmp -keep 1 | grep "pruned $$tmp/gen1.json" && \
	test ! -f $$tmp/gen1.json && test -f $$tmp/gen2.json && \
	echo "incremental smoke: delta exact, gc pruned the stale generation"

# The remote store tier end to end through real binaries: `flit store
# serve` on a loopback port, then two runs sharing nothing but the URL —
# the second must be byte-identical with zero materialized builds, every
# hit arriving over the wire. (scripts/ci.sh runs the same smoke.)
remote-smoke:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/flit ./cmd/flit || { rm -rf "$$tmp"; exit 1; }; \
	$$tmp/flit store serve -dir $$tmp/store -addr 127.0.0.1:0 >$$tmp/serve.txt 2>&1 & \
	pid=$$!; trap 'kill $$pid 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	url=""; for _ in $$(seq 1 100); do \
		url=$$(sed -n 's|.*on \(http://.*\)|\1|p' $$tmp/serve.txt); \
		if [ -n "$$url" ]; then break; fi; sleep 0.1; \
	done; \
	test -n "$$url" && \
	$$tmp/flit experiments -j 2 -remote "$$url" -stats table4 >$$tmp/cold.txt 2>$$tmp/cold-stats.txt && \
	$$tmp/flit experiments -j 2 -remote "$$url" -stats table4 >$$tmp/warm.txt 2>$$tmp/warm-stats.txt && \
	diff $$tmp/cold.txt $$tmp/warm.txt && \
	grep -q 'builds: materialized=0' $$tmp/warm-stats.txt && \
	grep -q 'remote: hits=[1-9]' $$tmp/warm-stats.txt && \
	echo "remote smoke: byte-identical over the wire, zero builds"

# The multi-tenant campaign coordinator end to end through real binaries,
# worker crash and poisoned shard included: `flit coord serve` owns a
# 2-shard table4 campaign that worker A leases and stalls on (holding it
# open); `flit coord submit` adds a healthy table3 campaign plus a table2
# campaign whose shard 1 is poisoned (FLIT_WORK_FAIL) under an attempt
# budget of 2. Worker B exhausts the budget — the coordinator quarantines
# the shard and declares table2 terminally FAILED while table4 is still
# held, so `flit coord status` renders the quarantine live. Then worker A
# is SIGKILLed, its lease expires and is re-leased, worker B drains the
# healthy campaigns, and the coordinator exits NON-zero naming the
# quarantined shard. The healthy campaigns merge byte-identical to their
# unsharded runs; merging the failed campaign's partial artifact set must
# fail naming the missing shard. (scripts/ci.sh runs the same smoke.)
coord-smoke:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/flit ./cmd/flit || { rm -rf "$$tmp"; exit 1; }; \
	$$tmp/flit coord serve -dir $$tmp/campaign -addr 127.0.0.1:0 \
		-command "experiments table4" -shards 2 -lease-ttl 2s -exit-when-done \
		>$$tmp/coord.txt 2>&1 & \
	cpid=$$!; trap 'kill $$cpid 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	url=""; for _ in $$(seq 1 100); do \
		url=$$(sed -n 's|.*on \(http://.*\)|\1|p' $$tmp/coord.txt); \
		if [ -n "$$url" ]; then break; fi; sleep 0.1; \
	done; \
	test -n "$$url" && \
	c4=$$(sed -n 's/^campaign \(c[0-9a-f]*\): submitted "experiments table4".*/\1/p' $$tmp/coord.txt) && \
	test -n "$$c4" && \
	{ FLIT_WORK_STALL=60s $$tmp/flit work -coord "$$url" -j 2 -v -name straggler \
		>$$tmp/workA.txt 2>&1 & } ; apid=$$!; \
	for _ in $$(seq 1 100); do \
		if grep -q 'leased shard' $$tmp/workA.txt; then break; fi; sleep 0.1; \
	done; \
	grep -q 'leased shard' $$tmp/workA.txt && \
	$$tmp/flit coord status -coord "$$url" -campaign "$$c4" >$$tmp/detail.txt && \
	grep -q 'leased to straggler' $$tmp/detail.txt && \
	c3=$$($$tmp/flit coord submit -coord "$$url" -command "experiments table3" -shards 2 \
		| sed -n 's/^campaign \(c[0-9a-f]*\):.*/\1/p') && \
	test -n "$$c3" && \
	c2=$$($$tmp/flit coord submit -coord "$$url" -command "experiments table2" -shards 2 \
		-max-shard-attempts 2 | sed -n 's/^campaign \(c[0-9a-f]*\):.*/\1/p') && \
	test -n "$$c2" && \
	{ FLIT_WORK_FAIL=table2:1 $$tmp/flit work -coord "$$url" -j 2 -name finisher \
		>$$tmp/workB.txt 2>&1 & } ; bpid=$$!; \
	q=""; for _ in $$(seq 1 300); do \
		$$tmp/flit coord status -coord "$$url" >$$tmp/fleet.txt; \
		if grep -q 'quarantined' $$tmp/fleet.txt; then q=yes; break; fi; sleep 0.1; \
	done; \
	test -n "$$q" && \
	grep -q "campaign $$c2: .*1 quarantined.*FAILED:" $$tmp/fleet.txt && \
	$$tmp/flit coord status -coord "$$url" -campaign "$$c2" >$$tmp/faildetail.txt && \
	grep -q 'shard 1: QUARANTINED after 2 attempts' $$tmp/faildetail.txt && \
	kill -9 $$apid && \
	wait $$bpid && \
	grep -q 'campaigns terminal (5 shards completed here, 0 lost to re-lease, 2 failed)' $$tmp/workB.txt && \
	cexit=0; wait $$cpid || cexit=$$?; test "$$cexit" -ne 0 && \
	grep -q "campaign $$c4: 2/2 shards complete, [1-9][0-9]* re-leases" $$tmp/coord.txt && \
	grep -q "campaign $$c3: 2/2 shards complete, 0 re-leases" $$tmp/coord.txt && \
	grep -q "campaign $$c2: FAILED" $$tmp/coord.txt && \
	$$tmp/flit experiments -j 2 table4 >$$tmp/unsharded.txt && \
	$$tmp/flit merge -j 2 $$tmp/campaign/artifacts/$$c4/shard-*.json >$$tmp/merged.txt && \
	diff $$tmp/unsharded.txt $$tmp/merged.txt && \
	$$tmp/flit experiments -j 2 table3 >$$tmp/unsharded3.txt && \
	$$tmp/flit merge -j 2 $$tmp/campaign/artifacts/$$c3/shard-*.json >$$tmp/merged3.txt && \
	diff $$tmp/unsharded3.txt $$tmp/merged3.txt && \
	fm=0; $$tmp/flit merge $$tmp/campaign/artifacts/$$c2/shard-*.json \
		>/dev/null 2>$$tmp/failmerge.txt || fm=$$?; test "$$fm" -ne 0 && \
	grep -q 'missing shard indices \[1\]' $$tmp/failmerge.txt && \
	echo "coord smoke: crash re-leased, poisoned shard quarantined, healthy campaigns byte-identical"

# One iteration of the engine benchmarks, appending their timings to
# BENCH_shard.json (the recorded perf trajectory of the engine). The warm
# benches also enforce the key-first contract: a fully covered re-run is
# byte-identical with zero executables built.
bench-shard:
	BENCH_SHARD_JSON=$(CURDIR)/BENCH_shard.json \
		$(GO) test -run NONE -bench 'BenchmarkParallelEngineSweep|BenchmarkSpeculativeBisect|BenchmarkWarmPath|BenchmarkPersistentStore|BenchmarkRemoteStore|BenchmarkCoordCampaign' -benchtime 1x .

# The full benchmark suite regenerates every table and figure of the paper
# and times the parallel engine (BenchmarkParallelEngineSweep).
bench:
	$(GO) test -run NONE -bench . -benchtime 1x .
