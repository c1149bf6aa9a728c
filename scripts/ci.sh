#!/bin/sh
# ci.sh — the canonical tier-1+ gate (see ROADMAP.md).
#
#   go vet           static checks
#   go build         tier-1, part 1
#   go test -race    tier-1, part 2, with the race detector (and -cover:
#                    the parallel execution engine must be data-race-free
#                    at every -j, and per-package statement coverage is
#                    appended to BENCH_shard.json so the test-quality
#                    trajectory is tracked alongside the perf one)
#   fuzz smoke       ten seconds of coverage-guided fuzzing of the store
#                    envelope decoder (FuzzRemoteDecode), the trust
#                    boundary every disk read and remote body crosses
#   perfbench test   the benchmark module's own tests (catalogue, wrapper,
#                    schedules) with -short, skipping the traced census;
#                    perfbench/ is a separate module that ./... misses
#   bench smoke      one iteration of the cheap benchmarks, so the
#                    benchmark harness itself cannot rot
#   shard smoke      the distributed protocol end to end through real
#                    binaries: quickstart as 2 shards + merge must be
#                    byte-identical to the unsharded run
#   incremental      the incremental-campaign engine end to end: a warmed
#                    re-run of the identical command reports an empty
#                    delta, a one-flag mutation reports exactly the
#                    mutated cells, `flit delta` agrees offline, and
#                    `flit gc` prunes only the superseded generation
#   bisect smoke     the speculative bisect engine end to end through a
#                    real binary: the laghos-bisect example at -j 1 (the
#                    paper's sequential probe order) and -j 8 (speculative)
#                    must print byte-identical output
#   store smoke      the persistent run store cross-process through the
#                    real flit binary: two identical runs sharing only a
#                    -store directory must print byte-identical output, the
#                    second materializing zero builds with nonzero store
#                    hits; `flit store stats`/`gc` must see and prune the
#                    entries
#   remote smoke     the remote store tier cross-machine through real
#                    binaries: `flit store serve` on a loopback port, then
#                    two runs sharing nothing but the URL — the second must
#                    print byte-identical output materializing zero builds
#                    with nonzero remote hits; SIGTERM must drain and exit 0
#   coord smoke      the multi-tenant campaign coordinator end to end
#                    through real binaries, worker crash and poisoned
#                    shard included: `flit coord serve` owns a table4
#                    campaign held open by a stalling worker while two
#                    more campaigns are submitted over HTTP — a healthy
#                    table3 and a table2 whose shard 1 is poisoned
#                    (FLIT_WORK_FAIL) under an attempt budget of 2. The
#                    poisoned shard must be quarantined and its campaign
#                    declared terminally FAILED while the tenancy is
#                    still live (status views render the quarantine,
#                    budget, and failure excerpt), then the stalling
#                    worker is SIGKILLed so its lease expires and is
#                    re-leased. The coordinator exits NON-zero naming
#                    the quarantined shard; the healthy campaigns merge
#                    byte-identical to unsharded runs with zero
#                    re-leases on table3 (cross-campaign isolation), and
#                    merging the failed campaign's partial artifact set
#                    must fail naming exactly the missing shard
#   bench shard      one iteration each of BenchmarkParallelEngineSweep,
#                    BenchmarkSpeculativeBisect, BenchmarkWarmPath,
#                    BenchmarkPersistentStore, BenchmarkRemoteStore, and
#                    BenchmarkCoordCampaign with BENCH_SHARD_JSON set,
#                    appending this run's engine
#                    timings (cache cold/warm, fan-out, shard+merge, bisect
#                    j1/j8 + spec-execs, warm_sweep_sec +
#                    warm_skipped_builds + cache_speedup_x, store_cold_sec
#                    + store_warm_sec + store_hits, remote_warm_sec +
#                    remote_hits + remote_retries, coord_campaigns +
#                    coord_campaign_sec + coord_campaign2_sec +
#                    coord_releases + coord_fail_reports +
#                    coord_quarantined) to BENCH_shard.json —
#                    the recorded perf trajectory. The warm benches also
#                    enforce the key-first contract: byte-identical output
#                    with zero executables built and zero run-cache misses
#                    (zero builds and nonzero store/remote hits for the
#                    store benches) on a fully covered re-run
#
# Run from the repository root: ./scripts/ci.sh
set -eux

go vet ./...
go build ./...

SHARD_TMP=$(mktemp -d)
trap 'rm -rf "$SHARD_TMP"' EXIT

# Race + coverage in one pass; the log is parsed for the coverage record
# below (a pipe would hide go test's exit status under plain sh).
go test -race -cover ./... >"$SHARD_TMP/cover.txt"
cat "$SHARD_TMP/cover.txt"
{
	printf '{"bench":"coverage","unix":%s,"packages":{' "$(date +%s)"
	awk '/coverage:/ {
		pct = ""
		for (i = 1; i <= NF; i++) if ($i ~ /%$/) pct = $i
		if (pct == "") next
		sub(/%/, "", pct)
		printf "%s\"%s\":%s", sep, $2, pct
		sep = ","
	}' "$SHARD_TMP/cover.txt"
	printf '}}\n'
} >>"$PWD/BENCH_shard.json"

go test -run NONE -fuzz '^FuzzRemoteDecode$' -fuzztime 10s ./internal/store

(cd perfbench && go test -short ./...)

go test -run NONE -bench 'BenchmarkTable3CodeStats|BenchmarkMotivation' -benchtime 1x .

# Shard-equivalence smoke: two shards + merge == unsharded, byte for byte.
go build -o "$SHARD_TMP/quickstart" ./examples/quickstart
"$SHARD_TMP/quickstart" >"$SHARD_TMP/unsharded.txt"
"$SHARD_TMP/quickstart" -shard 0/2 -shard-out "$SHARD_TMP/s0.json"
"$SHARD_TMP/quickstart" -shard 1/2 -shard-out "$SHARD_TMP/s1.json"
"$SHARD_TMP/quickstart" -merge "$SHARD_TMP/s0.json,$SHARD_TMP/s1.json" >"$SHARD_TMP/merged.txt"
diff "$SHARD_TMP/unsharded.txt" "$SHARD_TMP/merged.txt"

# Incremental-campaign smoke. Generation 1 of the quickstart campaign,
# then a re-run with one mutated compiler flag (-unroll moves the plain
# g++ -O3 row): the warm-started run must report exactly one new and one
# dropped cell — the mutated compilation — and name the flag in the
# report. A same-command second generation must diff empty offline via
# `flit delta`, and `flit gc` must prune only the superseded generation —
# never a file the -warm-start manifest still references.
go build -o "$SHARD_TMP/flit" ./cmd/flit
ART_DIR="$SHARD_TMP/campaign"
mkdir -p "$ART_DIR"
"$SHARD_TMP/quickstart" -shard 0/1 -shard-out "$ART_DIR/gen1.json"
"$SHARD_TMP/quickstart" -unroll -warm-start "$ART_DIR/gen1.json" \
	-delta-out "$SHARD_TMP/delta.json" >"$SHARD_TMP/delta.txt"
grep 'delta: new=1 dropped=1 changed=0' "$SHARD_TMP/delta.txt"
grep funroll-loops "$SHARD_TMP/delta.json" >/dev/null
"$SHARD_TMP/quickstart" -shard 0/1 -shard-out "$ART_DIR/gen2.json"
"$SHARD_TMP/flit" delta -baseline "$ART_DIR/gen1.json" "$ART_DIR/gen2.json" \
	>"$SHARD_TMP/delta-same.txt"
grep 'delta: new=0 dropped=0 changed=0' "$SHARD_TMP/delta-same.txt"
"$SHARD_TMP/flit" gc -dir "$ART_DIR" -keep 1 -dry-run -warm-start "$ART_DIR/gen1.json" \
	| grep "protected $ART_DIR/gen1.json"
test -f "$ART_DIR/gen1.json"
"$SHARD_TMP/flit" gc -dir "$ART_DIR" -keep 1 | grep "pruned $ART_DIR/gen1.json"
test ! -f "$ART_DIR/gen1.json"
test -f "$ART_DIR/gen2.json"

# Speculative-bisect smoke: j1 vs j8 through a real binary, byte for byte.
go build -o "$SHARD_TMP/laghos-bisect" ./examples/laghos-bisect
"$SHARD_TMP/laghos-bisect" -j 1 >"$SHARD_TMP/laghos-j1.txt"
"$SHARD_TMP/laghos-bisect" -j 8 >"$SHARD_TMP/laghos-j8.txt"
diff "$SHARD_TMP/laghos-j1.txt" "$SHARD_TMP/laghos-j8.txt"

# Persistent-store smoke: two processes sharing only a -store directory.
# The second run must reproduce the first byte for byte without building a
# single executable — no artifact export, no -warm-start manifest — and the
# store subcommands must see and prune the persisted entries.
STORE_DIR="$SHARD_TMP/runstore"
"$SHARD_TMP/flit" experiments -j 2 -store "$STORE_DIR" -stats table4 \
	>"$SHARD_TMP/store-cold.txt" 2>"$SHARD_TMP/store-cold-stats.txt"
"$SHARD_TMP/flit" experiments -j 2 -store "$STORE_DIR" -stats table4 \
	>"$SHARD_TMP/store-warm.txt" 2>"$SHARD_TMP/store-warm-stats.txt"
diff "$SHARD_TMP/store-cold.txt" "$SHARD_TMP/store-warm.txt"
grep 'builds: materialized=0' "$SHARD_TMP/store-warm-stats.txt"
grep 'store: hits=[1-9]' "$SHARD_TMP/store-warm-stats.txt"
"$SHARD_TMP/flit" store stats -store "$STORE_DIR" | grep 'corrupt=0'
"$SHARD_TMP/flit" store gc -store "$STORE_DIR" -max-entries 1 | grep 'kept=1'

# Remote-store smoke: `flit store serve` on a loopback port, then two runs
# sharing nothing but the URL — no -store directory, no artifact, no
# manifest. The second must reproduce the first byte for byte with zero
# materialized builds, every hit arriving over the wire. The announced URL
# is read off the server's first stdout line (-addr :0 picks a free port).
REMOTE_DIR="$SHARD_TMP/remotestore"
"$SHARD_TMP/flit" store serve -dir "$REMOTE_DIR" -addr 127.0.0.1:0 \
	>"$SHARD_TMP/serve.txt" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$SHARD_TMP"' EXIT
REMOTE_URL=""
for _ in $(seq 1 100); do
	REMOTE_URL=$(sed -n 's|.*on \(http://.*\)|\1|p' "$SHARD_TMP/serve.txt")
	if [ -n "$REMOTE_URL" ]; then break; fi
	sleep 0.1
done
test -n "$REMOTE_URL"
"$SHARD_TMP/flit" experiments -j 2 -remote "$REMOTE_URL" -stats table4 \
	>"$SHARD_TMP/remote-cold.txt" 2>"$SHARD_TMP/remote-cold-stats.txt"
"$SHARD_TMP/flit" experiments -j 2 -remote "$REMOTE_URL" -stats table4 \
	>"$SHARD_TMP/remote-warm.txt" 2>"$SHARD_TMP/remote-warm-stats.txt"
diff "$SHARD_TMP/remote-cold.txt" "$SHARD_TMP/remote-warm.txt"
grep 'builds: materialized=0' "$SHARD_TMP/remote-warm-stats.txt"
grep 'remote: hits=[1-9]' "$SHARD_TMP/remote-warm-stats.txt"
# Graceful shutdown: SIGTERM must drain and exit 0, not die mid-response.
kill "$SERVE_PID"
wait "$SERVE_PID"
grep 'shutting down' "$SHARD_TMP/serve.txt"

# Multi-tenant campaign-coordinator smoke: the full distributed protocol
# through real binaries, including a worker crash, a second campaign
# sharing the coordinator, and a third campaign with a deterministically
# poisoned shard. `flit coord serve` owns a 2-shard table4 campaign;
# worker A leases its shards and stalls forever (FLIT_WORK_STALL) while
# heartbeating, holding table4 open. While it stalls, `flit coord
# status` polls the fleet (a pure read: it must not release anything)
# and `flit coord submit` adds a healthy 2-shard table3 campaign plus a
# 2-shard table2 campaign whose shard 1 is poisoned (FLIT_WORK_FAIL)
# under an attempt budget of 2. Worker B fails the poisoned shard on
# both budgeted attempts — the coordinator quarantines it and declares
# table2 terminally FAILED while table4 is still held, so the status
# views render the quarantine live. Only then is worker A SIGKILLed —
# the crash the lease protocol exists for — and worker B re-leases and
# drains the healthy campaigns. The coordinator exits NON-zero
# (-exit-when-done) naming the quarantined shard, table3 finishes with
# zero re-leases (cross-campaign isolation), both healthy campaigns'
# merged artifact sets are byte-identical to their unsharded runs, and
# merging the failed campaign's partial artifact set must fail naming
# exactly the missing shard.
COORD_DIR="$SHARD_TMP/campaign-coord"
"$SHARD_TMP/flit" coord serve -dir "$COORD_DIR" -addr 127.0.0.1:0 \
	-command "experiments table4" -shards 2 -lease-ttl 2s -exit-when-done \
	>"$SHARD_TMP/coord.txt" 2>&1 &
COORD_PID=$!
trap 'kill "$COORD_PID" 2>/dev/null || true; rm -rf "$SHARD_TMP"' EXIT
COORD_URL=""
for _ in $(seq 1 100); do
	COORD_URL=$(sed -n 's|.*on \(http://.*\)|\1|p' "$SHARD_TMP/coord.txt")
	if [ -n "$COORD_URL" ]; then break; fi
	sleep 0.1
done
test -n "$COORD_URL"
CAMPAIGN4=$(sed -n 's/^campaign \(c[0-9a-f]*\): submitted "experiments table4".*/\1/p' "$SHARD_TMP/coord.txt")
test -n "$CAMPAIGN4"
FLIT_WORK_STALL=60s "$SHARD_TMP/flit" work -coord "$COORD_URL" -j 2 -v \
	-name straggler >"$SHARD_TMP/workA.txt" 2>&1 &
WORKA_PID=$!
for _ in $(seq 1 100); do
	if grep -q 'leased shard' "$SHARD_TMP/workA.txt"; then break; fi
	sleep 0.1
done
grep 'leased shard' "$SHARD_TMP/workA.txt"
# Status is a pure read: polling it mid-stall must not touch the live
# leases (their revival is the heartbeat path's job, reclaim is Lease's).
"$SHARD_TMP/flit" coord status -coord "$COORD_URL" >"$SHARD_TMP/coord-fleet.txt"
grep "campaign $CAMPAIGN4: \"experiments table4\"" "$SHARD_TMP/coord-fleet.txt"
"$SHARD_TMP/flit" coord status -coord "$COORD_URL" -campaign "$CAMPAIGN4" \
	>"$SHARD_TMP/coord-detail.txt"
grep 'leased to straggler' "$SHARD_TMP/coord-detail.txt"
CAMPAIGN3=$("$SHARD_TMP/flit" coord submit -coord "$COORD_URL" \
	-command "experiments table3" -shards 2 | sed -n 's/^campaign \(c[0-9a-f]*\):.*/\1/p')
test -n "$CAMPAIGN3"
CAMPAIGN2=$("$SHARD_TMP/flit" coord submit -coord "$COORD_URL" \
	-command "experiments table2" -shards 2 -max-shard-attempts 2 \
	| sed -n 's/^campaign \(c[0-9a-f]*\):.*/\1/p')
test -n "$CAMPAIGN2"
FLIT_WORK_FAIL=table2:1 "$SHARD_TMP/flit" work -coord "$COORD_URL" -j 2 -v \
	-stats -name finisher >"$SHARD_TMP/workB.txt" 2>"$SHARD_TMP/workB-stats.txt" &
WORKB_PID=$!
# Worker A still holds table4, so the tenancy cannot reach all-terminal:
# the quarantine of table2 shard 1 stays observable through the status
# views for as long as the poll needs.
QUARANTINED=""
for _ in $(seq 1 300); do
	"$SHARD_TMP/flit" coord status -coord "$COORD_URL" >"$SHARD_TMP/coord-fail-fleet.txt"
	if grep -q 'quarantined' "$SHARD_TMP/coord-fail-fleet.txt"; then
		QUARANTINED=yes
		break
	fi
	sleep 0.1
done
test -n "$QUARANTINED"
grep "campaign $CAMPAIGN2: .*1 quarantined.*FAILED:" "$SHARD_TMP/coord-fail-fleet.txt"
grep 'shards \[1\] quarantined after exhausting their attempt budget' "$SHARD_TMP/coord-fail-fleet.txt"
"$SHARD_TMP/flit" coord status -coord "$COORD_URL" -campaign "$CAMPAIGN2" \
	>"$SHARD_TMP/coord-fail-detail.txt"
grep 'attempt budget 2' "$SHARD_TMP/coord-fail-detail.txt"
grep 'shard 1: QUARANTINED after 2 attempts' "$SHARD_TMP/coord-fail-detail.txt"
grep 'FLIT_WORK_FAIL: injected deterministic failure' "$SHARD_TMP/coord-fail-detail.txt"
# Now the crash the lease protocol exists for: SIGKILL the straggler so
# its table4 leases expire and worker B re-leases and drains them.
kill -9 "$WORKA_PID"
wait "$WORKB_PID"
grep 'campaigns terminal (5 shards completed here, 0 lost to re-lease, 2 failed)' "$SHARD_TMP/workB.txt"
grep 'quarantined (attempt budget exhausted)' "$SHARD_TMP/workB-stats.txt"
grep 'coord: completed=5 lost=0 failed=2' "$SHARD_TMP/workB-stats.txt"
# A terminally failed campaign makes the coordinator's own exit non-zero.
COORD_EXIT=0
wait "$COORD_PID" || COORD_EXIT=$?
test "$COORD_EXIT" -ne 0
grep "campaign $CAMPAIGN4: 2/2 shards complete, [1-9][0-9]* re-leases" "$SHARD_TMP/coord.txt"
grep "campaign $CAMPAIGN3: 2/2 shards complete, 0 re-leases" "$SHARD_TMP/coord.txt"
grep "campaign $CAMPAIGN2: FAILED" "$SHARD_TMP/coord.txt"
grep 'failed terminally' "$SHARD_TMP/coord.txt"
test "$(grep -c 'artifact set validated' "$SHARD_TMP/coord.txt")" -eq 2
"$SHARD_TMP/flit" experiments -j 2 table4 >"$SHARD_TMP/coord-unsharded.txt"
"$SHARD_TMP/flit" merge -j 2 "$COORD_DIR/artifacts/$CAMPAIGN4"/shard-*.json \
	>"$SHARD_TMP/coord-merged.txt"
diff "$SHARD_TMP/coord-unsharded.txt" "$SHARD_TMP/coord-merged.txt"
"$SHARD_TMP/flit" experiments -j 2 table3 >"$SHARD_TMP/coord-unsharded3.txt"
"$SHARD_TMP/flit" merge -j 2 "$COORD_DIR/artifacts/$CAMPAIGN3"/shard-*.json \
	>"$SHARD_TMP/coord-merged3.txt"
diff "$SHARD_TMP/coord-unsharded3.txt" "$SHARD_TMP/coord-merged3.txt"
# The failed campaign's surviving partial artifact set refuses to merge,
# naming the quarantined shard exactly.
FAILMERGE=0
"$SHARD_TMP/flit" merge "$COORD_DIR/artifacts/$CAMPAIGN2"/shard-*.json \
	>/dev/null 2>"$SHARD_TMP/coord-fail-merge.txt" || FAILMERGE=$?
test "$FAILMERGE" -ne 0
grep 'missing shard indices \[1\]' "$SHARD_TMP/coord-fail-merge.txt"

# Record the engine's perf trajectory (appends one JSON line per bench run).
BENCH_SHARD_JSON="$PWD/BENCH_shard.json" \
	go test -run NONE -bench 'BenchmarkParallelEngineSweep|BenchmarkSpeculativeBisect|BenchmarkWarmPath|BenchmarkPersistentStore|BenchmarkRemoteStore|BenchmarkCoordCampaign' -benchtime 1x .
