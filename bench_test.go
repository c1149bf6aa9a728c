// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§3). Each bench prints the regenerated artifact once and
// reports the headline shape numbers as custom metrics, so
// `go test -bench=. -benchmem` reproduces the study end to end.
//
// Absolute values differ from the paper (the substrate is a simulated
// toolchain; see DESIGN.md); EXPERIMENTS.md records paper-vs-measured for
// every artifact.
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/comp"
	"repro/internal/coord"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/flit"
	"repro/internal/inject"
	"repro/internal/store"
)

var printOnce sync.Map

// once logs s a single time per key across benchmark iterations.
func once(b *testing.B, key, s string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		b.Log("\n" + s)
	}
}

// BenchmarkTable1CompilerSummary regenerates Table 1: per-compiler variable
// run counts and best average flags over the 19-example × 244-compilation
// matrix.
func BenchmarkTable1CompilerSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		once(b, "table1", experiments.RenderTable1(rows))
		for _, r := range rows {
			if r.Compiler == comp.ICPC {
				b.ReportMetric(100*float64(r.VariableRuns)/float64(r.TotalRuns),
					"icpc-variable-%")
			}
		}
	}
}

// BenchmarkFigure4SpeedupScatter regenerates the two panels of Figure 4:
// per-compilation speedups for examples 5 and 9, split bitwise-equal vs
// variable.
func BenchmarkFigure4SpeedupScatter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ex := range []int{5, 9} {
			s, err := experiments.Figure4(ex)
			if err != nil {
				b.Fatal(err)
			}
			if ex == 5 && s.HasEqual {
				b.ReportMetric(s.FastestEqual.Speedup, "ex5-fastest-equal-speedup")
			}
		}
	}
}

// BenchmarkFigure5FastestHistogram regenerates Figure 5: the fastest
// bitwise-equal compilation per compiler versus the fastest variable one,
// for each of the 19 examples.
func BenchmarkFigure5FastestHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		repro := 0
		for _, r := range rows {
			if r.FastestIsReproducible {
				repro++
			}
		}
		b.ReportMetric(float64(repro), "fastest-reproducible-of-19")
	}
}

// BenchmarkFigure6Variability regenerates Figure 6: per-example counts of
// variability-inducing compilations and relative-error spreads.
func BenchmarkFigure6Variability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[12].MaxErr, "ex13-max-relative-error")
	}
}

// BenchmarkTable2BisectCharacterization regenerates Table 2: FLiT Bisect on
// every variability-inducing (test, compilation) pair of the matrix, with
// per-compiler execution counts and File/Symbol Bisect success rates.
func BenchmarkTable2BisectCharacterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, total, err := experiments.Table2(0)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "table2", experiments.RenderTable2(rows))
		b.ReportMetric(float64(total), "variable-pairs")
		var execs, n float64
		for _, r := range rows {
			if r.FileTotal > 0 {
				execs += r.AvgExecs
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(execs/n, "avg-test-executions")
		}
	}
}

// BenchmarkTable3CodeStats regenerates Table 3: the mini-MFEM code census.
func BenchmarkTable3CodeStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3()
		b.ReportMetric(rows[2].Measured, "total-functions")
	}
}

// BenchmarkFindings regenerates Findings 1 and 2: the mat/vec blame of
// example 8 and the single-function AddMult_a_AAt blame of example 13.
func BenchmarkFindings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fs, err := experiments.Findings()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(fs[0].Functions)), "ex8-blamed-functions")
		b.ReportMetric(fs[1].MaxRelErr, "ex13-max-relative-error")
	}
}

// BenchmarkMotivation regenerates the §1 motivating example: the Laghos
// xlc++ -O2 → -O3 energy-norm jump and speedup.
func BenchmarkMotivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mo, err := experiments.RunMotivation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*mo.RelDiff, "energy-norm-shift-%")
		b.ReportMetric(mo.SpeedupFactor, "O2-over-O3-speedup")
	}
}

// BenchmarkTable4Laghos regenerates Table 4: digit-limited Bisect of
// xlc++ -O3 against the three trusted baselines with k ∈ {1, 2, all}.
func BenchmarkTable4Laghos(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4()
		if err != nil {
			b.Fatal(err)
		}
		once(b, "table4", experiments.RenderTable4(rows))
		b.ReportMetric(float64(rows[0].Runs[0]), "k1-runs")
	}
}

// BenchmarkLaghosNaNBug regenerates the automated re-discovery of the
// XOR-swap undefined-behavior bug (the paper's 45-execution search).
func BenchmarkLaghosNaNBug(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunNaNBug()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Execs), "executions")
	}
}

// BenchmarkTable5Injection regenerates Table 5: the full 1,094-site × 4-OP'
// injection campaign (4,376 runs) with precision/recall scoring.
func BenchmarkTable5Injection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sum, err := experiments.Table5(1)
		if err != nil {
			b.Fatal(err)
		}
		once(b, "table5", experiments.RenderTable5(sum))
		b.ReportMetric(float64(sum.Total), "injection-runs")
		b.ReportMetric(100*sum.Precision(), "precision-%")
		b.ReportMetric(100*sum.Recall(), "recall-%")
		b.ReportMetric(sum.AvgExecs(), "avg-executions")
		if sum.Counts[inject.Wrong] != 0 || sum.Counts[inject.Missed] != 0 {
			b.Fatalf("precision/recall violated: %v", sum.Counts)
		}
	}
}

// BenchmarkParallelEngineSweep times the experiments sweep (matrix +
// Table 2 characterization + Laghos case study + sampled injection
// campaign) under four engine configurations and reports the speedups the
// execution engine buys:
//
//   - j1-uncached: the seed's behavior — sequential, every build/run pair
//     re-executed;
//   - j1-cached: sequential with the memoizing build/run cache;
//   - warm: sequential, warm-started from the j1-cached run's exported
//     artifact — the steady state of an incremental campaign, where the
//     key-first engine answers every covered evaluation by plan key and
//     never links, never builds a machine, and never runs a test;
//   - j4-cached: four-way fan-out plus the cache;
//   - shard2: the distributed protocol — two shard engines each computing
//     half the job space, artifact export/import, and the merge replay
//     (shard2-max-sec is the slower shard, the wall-clock of a two-machine
//     campaign; shard2-merge-sec is the replay cost on the collector).
//
// "cache-speedup-x" is j1-uncached vs warm: what the memoized cache is
// worth once it is populated, which is the state every re-run of a
// campaign is in. (Before key-first execution this metric compared
// j1-uncached against a fresh j1-cached run and saturated around 1.1–1.4x,
// because a fresh run's time is dominated by the unique evaluations both
// configurations must execute once; that first-run ratio is still recorded
// as "cache-firstrun-speedup-x".) The warm sweep is asserted byte-identical
// to the cold ones and must materialize zero executables through the
// key-first engine — the build counter is part of the benchmark's
// contract, not just a metric. (The Motivation narrative's two direct,
// cache-free simulations are outside the engine by design.)
// "j4-vs-j1-speedup-x" measures the worker-pool fan-out and scales with
// available CPUs — on a single-CPU host it is ~1.0 by physics; the pool
// still bounds concurrency correctly and the outputs stay bit-identical
// (the sweep digests are compared every iteration, including the merged
// replay's).
//
// With BENCH_SHARD_JSON=path set, the run appends its metrics as one JSON
// line to path — scripts/ci.sh points it at BENCH_shard.json so the
// perf trajectory of the engine is recorded run over run.
func BenchmarkParallelEngineSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		uncached, err := experiments.NewEngineNoCache(1).SweepDigest()
		if err != nil {
			b.Fatal(err)
		}
		uncachedSec := time.Since(t0).Seconds()

		seqEng := experiments.NewEngine(1)
		t0 = time.Now()
		seq, err := seqEng.SweepDigest()
		if err != nil {
			b.Fatal(err)
		}
		seqSec := time.Since(t0).Seconds()

		warmEng := experiments.NewEngine(1)
		if err := warmEng.WarmStart(seqEng.ExportArtifact(nil)); err != nil {
			b.Fatal(err)
		}
		t0 = time.Now()
		warm, err := warmEng.SweepDigest()
		if err != nil {
			b.Fatal(err)
		}
		warmSec := time.Since(t0).Seconds()
		wm := warmEng.CacheMetrics()
		if wm.Builds != 0 {
			b.Fatalf("warm-started sweep materialized %d executables, want 0", wm.Builds)
		}
		if wm.Runs.Misses != 0 {
			b.Fatalf("warm-started sweep missed the cache %d times, want 0", wm.Runs.Misses)
		}

		t0 = time.Now()
		par, err := experiments.Sweep(4)
		if err != nil {
			b.Fatal(err)
		}
		parSec := time.Since(t0).Seconds()

		// The distributed protocol, in-process: each shard engine computes
		// its half of every fan-out, the collector merges the artifacts and
		// replays the sweep from the union cache.
		shardSec := [2]float64{}
		arts := make([]*flit.Artifact, 2)
		for s := 0; s < 2; s++ {
			t0 = time.Now()
			eng := experiments.NewEngine(1)
			eng.SetShard(exec.Shard{Index: s, Count: 2})
			if _, err := eng.SweepDigest(); err != nil {
				b.Fatal(err)
			}
			arts[s] = eng.ExportArtifact(nil)
			shardSec[s] = time.Since(t0).Seconds()
		}
		t0 = time.Now()
		mergedEng := experiments.NewEngine(1)
		if err := mergedEng.ImportArtifacts(arts...); err != nil {
			b.Fatal(err)
		}
		merged, err := mergedEng.SweepDigest()
		if err != nil {
			b.Fatal(err)
		}
		mergeSec := time.Since(t0).Seconds()
		shardMax := math.Max(shardSec[0], shardSec[1])

		if seq != par || seq != uncached || seq != merged || seq != warm {
			b.Fatal("sweep digests differ across engine configurations")
		}
		b.ReportMetric(uncachedSec, "j1-uncached-sec")
		b.ReportMetric(seqSec, "j1-cached-sec")
		b.ReportMetric(warmSec, "warm-sweep-sec")
		b.ReportMetric(float64(wm.SkippedBuilds), "warm-skipped-builds")
		b.ReportMetric(parSec, "j4-cached-sec")
		b.ReportMetric(shardMax, "shard2-max-sec")
		b.ReportMetric(mergeSec, "shard2-merge-sec")
		b.ReportMetric(uncachedSec/warmSec, "cache-speedup-x")
		b.ReportMetric(uncachedSec/seqSec, "cache-firstrun-speedup-x")
		b.ReportMetric(seqSec/parSec, "j4-vs-j1-speedup-x")
		b.ReportMetric(uncachedSec/parSec, "engine-vs-seed-speedup-x")
		b.ReportMetric(seqSec/(shardMax+mergeSec), "shard2-vs-j1-speedup-x")

		if path := os.Getenv("BENCH_SHARD_JSON"); path != "" {
			rec := map[string]any{
				"bench":                    "BenchmarkParallelEngineSweep",
				"engine":                   flit.EngineVersion,
				"unix":                     time.Now().Unix(),
				"j1_uncached_sec":          uncachedSec,
				"j1_cached_sec":            seqSec,
				"warm_sweep_sec":           warmSec,
				"warm_skipped_builds":      wm.SkippedBuilds,
				"j4_cached_sec":            parSec,
				"shard2_max_sec":           shardMax,
				"shard2_merge_sec":         mergeSec,
				"cache_speedup_x":          uncachedSec / warmSec,
				"cache_firstrun_speedup_x": uncachedSec / seqSec,
				"j4_vs_j1_speedup_x":       seqSec / parSec,
				"shard2_vs_j1_speedup_x":   seqSec / (shardMax + mergeSec),
			}
			if err := appendJSONLine(path, rec); err != nil {
				b.Fatalf("BENCH_SHARD_JSON: %v", err)
			}
		}
	}
}

// BenchmarkWarmPath is the key-first engine's dedicated contract check: a
// cold j1 sweep, its artifact export, and a warm-started re-run of the
// identical sweep must produce byte-identical digests while the warm run
// materializes zero executables and misses the run cache zero times —
// every covered cell replays from the imported record with no link step, no
// ABI-hazard scan, no machine, and no test execution. The benchmark
// reports what that buys (warm-sweep-sec vs cold-sweep-sec) and how much
// build work was skipped, and appends warm_sweep_sec / warm_skipped_builds
// / warm_vs_cold_speedup_x to BENCH_shard.json when BENCH_SHARD_JSON is
// set (cold-cached vs warm: the wall-clock of generation N+1 of an
// unchanged campaign relative to generation 1; the uncached-vs-warm ratio
// is the sweep benchmark's cache_speedup_x). "Zero build work" is scoped
// to the execution engine: the Motivation narrative inside the sweep runs
// two direct, cache-free simulations by design (it is a prose demo, not a
// matrix evaluation), which the key-first counters rightly do not see.
func BenchmarkWarmPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold := experiments.NewEngine(1)
		t0 := time.Now()
		coldDigest, err := cold.SweepDigest()
		if err != nil {
			b.Fatal(err)
		}
		coldSec := time.Since(t0).Seconds()
		art := cold.ExportArtifact(nil)

		warm := experiments.NewEngine(1)
		if err := warm.WarmStart(art); err != nil {
			b.Fatal(err)
		}
		t0 = time.Now()
		warmDigest, err := warm.SweepDigest()
		if err != nil {
			b.Fatal(err)
		}
		warmSec := time.Since(t0).Seconds()

		if coldDigest != warmDigest {
			b.Fatal("warm-started sweep digest differs from the cold run's")
		}
		m := warm.CacheMetrics()
		if m.Builds != 0 {
			b.Fatalf("warm-started sweep materialized %d executables, want 0", m.Builds)
		}
		if m.Runs.Misses != 0 {
			b.Fatalf("warm-started sweep missed the run cache %d times, want 0", m.Runs.Misses)
		}
		b.ReportMetric(coldSec, "cold-sweep-sec")
		b.ReportMetric(warmSec, "warm-sweep-sec")
		b.ReportMetric(coldSec/warmSec, "warm-vs-cold-speedup-x")
		b.ReportMetric(float64(m.SkippedBuilds), "warm-skipped-builds")

		if path := os.Getenv("BENCH_SHARD_JSON"); path != "" {
			rec := map[string]any{
				"bench":                  "BenchmarkWarmPath",
				"engine":                 flit.EngineVersion,
				"unix":                   time.Now().Unix(),
				"cold_sweep_sec":         coldSec,
				"warm_sweep_sec":         warmSec,
				"warm_skipped_builds":    m.SkippedBuilds,
				"warm_vs_cold_speedup_x": coldSec / warmSec,
			}
			if err := appendJSONLine(path, rec); err != nil {
				b.Fatalf("BENCH_SHARD_JSON: %v", err)
			}
		}
	}
}

// BenchmarkSpeculativeBisect times the speculative bisect engine on the
// paper's two single-search workloads — the Laghos NaN-bug rediscovery
// (full BisectAll) and the Example13 hierarchical search behind Finding 2 —
// at -j 1 (the paper's sequential probe order) and -j 8 (speculative
// halving, singleton prefetch, parallel frontier expansion). The findings
// and the paper execution counts are asserted identical; the metrics
// record what speculation costs (spec-execs, the discarded background
// probes) and buys (wall-clock — the j8-vs-j1 ratio needs multi-core
// hardware to show a win; on one CPU it is ~1.0 by physics).
//
// With BENCH_SHARD_JSON=path set, the run appends bisect_j1_sec,
// bisect_j8_sec, and bisect_spec_execs as one JSON line — scripts/ci.sh
// points it at BENCH_shard.json next to the engine sweep's timings.
func BenchmarkSpeculativeBisect(b *testing.B) {
	variable := comp.Compilation{Compiler: comp.GCC, OptLevel: "-O3", Switches: "-mavx2 -mfma"}
	for i := 0; i < b.N; i++ {
		type out struct {
			digest string
			sec    float64
			spec   int
		}
		runAt := func(j int) out {
			eng := experiments.NewEngine(j)
			t0 := time.Now()
			nan, err := eng.RunNaNBug()
			if err != nil {
				b.Fatal(err)
			}
			wf := eng.Workflow()
			report, err := wf.Bisect(wf.TestByName("Example13"), variable, 0)
			if err != nil {
				b.Fatal(err)
			}
			sec := time.Since(t0).Seconds()
			digest := fmt.Sprintf("nan execs=%d files=%v symbols=%v | ex13 execs=%d files=%v",
				nan.Execs, nan.Files, nan.Symbols, report.Execs, report.Files)
			return out{digest: digest, sec: sec, spec: nan.SpecExecs + report.SpecExecs}
		}
		j1 := runAt(1)
		j8 := runAt(8)
		if j1.digest != j8.digest {
			b.Fatalf("speculative bisect diverged from sequential:\n-j 1: %s\n-j 8: %s",
				j1.digest, j8.digest)
		}
		if j1.spec != 0 {
			b.Fatalf("sequential run reported %d speculative executions", j1.spec)
		}
		b.ReportMetric(j1.sec, "bisect-j1-sec")
		b.ReportMetric(j8.sec, "bisect-j8-sec")
		b.ReportMetric(j1.sec/j8.sec, "bisect-j8-vs-j1-speedup-x")
		b.ReportMetric(float64(j8.spec), "bisect-spec-execs")

		if path := os.Getenv("BENCH_SHARD_JSON"); path != "" {
			rec := map[string]any{
				"bench":             "BenchmarkSpeculativeBisect",
				"engine":            flit.EngineVersion,
				"unix":              time.Now().Unix(),
				"bisect_j1_sec":     j1.sec,
				"bisect_j8_sec":     j8.sec,
				"bisect_spec_execs": j8.spec,
			}
			if err := appendJSONLine(path, rec); err != nil {
				b.Fatalf("BENCH_SHARD_JSON: %v", err)
			}
		}
	}
}

// BenchmarkPersistentStore times the on-disk run store's cross-process
// warm path: a cold sweep writing through to a fresh store directory, then
// a second engine — sharing nothing with the first but the directory, the
// "new process tomorrow" scenario — re-rendering the sweep from disk. The
// digests must match byte for byte and the warm engine must materialize
// zero builds; unlike BenchmarkWarmPath there is no artifact export or
// -warm-start manifest anywhere, the store alone carries the results.
//
// With BENCH_SHARD_JSON=path set, appends store_cold_sec / store_warm_sec /
// store_hits alongside the other perf-trajectory records.
func BenchmarkPersistentStore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		openDisk := func() *store.Disk {
			d, err := store.Open(dir, flit.EngineVersion)
			if err != nil {
				b.Fatal(err)
			}
			return d
		}

		cold := experiments.NewEngine(1)
		cold.AttachStore(openDisk())
		t0 := time.Now()
		coldDigest, err := cold.SweepDigest()
		if err != nil {
			b.Fatal(err)
		}
		coldSec := time.Since(t0).Seconds()
		if m := cold.CacheMetrics(); m.Store.Puts == 0 {
			b.Fatal("cold sweep persisted nothing")
		}

		warm := experiments.NewEngine(1)
		warm.AttachStore(openDisk())
		t0 = time.Now()
		warmDigest, err := warm.SweepDigest()
		if err != nil {
			b.Fatal(err)
		}
		warmSec := time.Since(t0).Seconds()

		if coldDigest != warmDigest {
			b.Fatal("store-warmed sweep digest differs from the cold run's")
		}
		m := warm.CacheMetrics()
		if m.Builds != 0 {
			b.Fatalf("store-warmed sweep materialized %d executables, want 0", m.Builds)
		}
		if m.Store.Hits == 0 {
			b.Fatal("store-warmed sweep recorded no store hits")
		}
		b.ReportMetric(coldSec, "store-cold-sec")
		b.ReportMetric(warmSec, "store-warm-sec")
		b.ReportMetric(coldSec/warmSec, "store-warm-vs-cold-speedup-x")
		b.ReportMetric(float64(m.Store.Hits), "store-hits")

		if path := os.Getenv("BENCH_SHARD_JSON"); path != "" {
			rec := map[string]any{
				"bench":          "BenchmarkPersistentStore",
				"engine":         flit.EngineVersion,
				"unix":           time.Now().Unix(),
				"store_cold_sec": coldSec,
				"store_warm_sec": warmSec,
				"store_hits":     m.Store.Hits,
			}
			if err := appendJSONLine(path, rec); err != nil {
				b.Fatalf("BENCH_SHARD_JSON: %v", err)
			}
		}
	}
}

// BenchmarkRemoteStore times the remote tier's cross-machine warm path:
// a Disk store served over loopback HTTP, a cold sweep writing through
// the Remote client, then a second engine — sharing nothing with the
// first but the URL, the "second machine" scenario — re-rendering the
// sweep entirely from the wire. The digests must match byte for byte,
// the warm engine must materialize zero builds, and a healthy loopback
// transport must need zero retries.
//
// With BENCH_SHARD_JSON=path set, appends remote_cold_sec /
// remote_warm_sec / remote_hits / remote_retries alongside the other
// perf-trajectory records.
func BenchmarkRemoteStore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		disk, err := store.Open(b.TempDir(), flit.EngineVersion)
		if err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(store.Handler(disk))
		newClient := func() *store.Remote {
			r, err := store.NewRemote(srv.URL, flit.EngineVersion, nil)
			if err != nil {
				b.Fatal(err)
			}
			return r
		}

		cold := experiments.NewEngine(1)
		cold.AttachStoreTiers(newClient())
		t0 := time.Now()
		coldDigest, err := cold.SweepDigest()
		if err != nil {
			b.Fatal(err)
		}
		coldSec := time.Since(t0).Seconds()
		if m := cold.CacheMetrics(); m.Store.Puts == 0 {
			b.Fatal("cold sweep persisted nothing over the wire")
		}

		warm := experiments.NewEngine(1)
		remote := newClient()
		warm.AttachStoreTiers(remote)
		t0 = time.Now()
		warmDigest, err := warm.SweepDigest()
		if err != nil {
			b.Fatal(err)
		}
		warmSec := time.Since(t0).Seconds()
		srv.Close()

		if coldDigest != warmDigest {
			b.Fatal("remote-warmed sweep digest differs from the cold run's")
		}
		m := warm.CacheMetrics()
		if m.Builds != 0 {
			b.Fatalf("remote-warmed sweep materialized %d executables, want 0", m.Builds)
		}
		rm := remote.Metrics()
		if rm.Hits == 0 {
			b.Fatal("remote-warmed sweep recorded no remote hits")
		}
		if rm.Retries != 0 || rm.Errors != 0 {
			b.Fatalf("loopback transport was not clean: %+v", rm)
		}
		b.ReportMetric(coldSec, "remote-cold-sec")
		b.ReportMetric(warmSec, "remote-warm-sec")
		b.ReportMetric(coldSec/warmSec, "remote-warm-vs-cold-speedup-x")
		b.ReportMetric(float64(rm.Hits), "remote-hits")
		b.ReportMetric(float64(rm.Retries), "remote-retries")

		if path := os.Getenv("BENCH_SHARD_JSON"); path != "" {
			rec := map[string]any{
				"bench":           "BenchmarkRemoteStore",
				"engine":          flit.EngineVersion,
				"unix":            time.Now().Unix(),
				"remote_cold_sec": coldSec,
				"remote_warm_sec": warmSec,
				"remote_hits":     rm.Hits,
				"remote_retries":  rm.Retries,
			}
			if err := appendJSONLine(path, rec); err != nil {
				b.Fatalf("BENCH_SHARD_JSON: %v", err)
			}
		}
	}
}

// BenchmarkCoordCampaign times the full distributed-campaign protocol in
// process: one coordinator (journal + artifact dir + shared object store
// behind a loopback HTTP mux) and two workers leasing shards of the
// Table 4 campaign, heartbeating, writing runs through to the shared
// store, and uploading shard artifacts — then the collector-side merge
// replay over the completed artifact set, asserted byte-identical to an
// unsharded run. A second campaign (Table 3) is then submitted over HTTP
// to the still-running coordinator and drained by a fresh worker pair,
// timing the multi-tenant steady state where the tenancy and shared
// store are already warm. coord-releases counts straggler re-leases
// across both campaigns; a healthy loopback fleet needs exactly zero.
//
// With BENCH_SHARD_JSON=path set, appends coord_campaign_sec /
// coord_campaign2_sec / coord_campaigns / coord_merge_sec /
// coord_releases / coord_fail_reports / coord_quarantined alongside the
// other perf-trajectory records; a healthy loopback fleet must record
// zero failure reports and zero quarantined shards (the containment
// paths cost nothing when nothing fails).
func BenchmarkCoordCampaign(b *testing.B) {
	command := []string{"experiments", "table4"}
	second := []string{"experiments", "table3"}
	const shards = 4
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		c, err := coord.New(dir, coord.Options{})
		if err != nil {
			b.Fatal(err)
		}
		id, _, err := c.Submit(coord.Spec{Command: command, Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		d, err := store.Open(dir+"/store", flit.EngineVersion)
		if err != nil {
			b.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.Handle("/", store.Handler(d))
		mux.Handle("/v1/coord/", coord.Handler(c))
		srv := httptest.NewServer(mux)

		drain := func() error {
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					cl, err := coord.NewClient(srv.URL, flit.EngineVersion, nil)
					if err != nil {
						errs[w] = err
						return
					}
					tier, err := store.NewRemote(srv.URL, flit.EngineVersion, nil)
					if err != nil {
						errs[w] = err
						return
					}
					run := func(cmd []string, shard exec.Shard) ([]byte, error) {
						return experiments.RunShard(cmd, shard, 1, tier)
					}
					_, errs[w] = coord.Work(context.Background(), cl, run,
						coord.WorkerOptions{Name: fmt.Sprintf("bench-w%d", w), PollEvery: 10 * time.Millisecond})
				}(w)
			}
			wg.Wait()
			return errors.Join(errs...)
		}

		t0 := time.Now()
		if err := drain(); err != nil {
			b.Fatal(err)
		}
		campaignSec := time.Since(t0).Seconds()

		// Second generation: submit over HTTP to the live coordinator and
		// drain again — the marginal cost of a campaign on a warm tenancy.
		cl, err := coord.NewClient(srv.URL, flit.EngineVersion, nil)
		if err != nil {
			b.Fatal(err)
		}
		id2, created, err := cl.Submit(context.Background(), second, 2, 0)
		if err != nil || !created {
			b.Fatalf("second campaign submit: created=%v err=%v", created, err)
		}
		t0 = time.Now()
		if err := drain(); err != nil {
			b.Fatal(err)
		}
		campaign2Sec := time.Since(t0).Seconds()
		srv.Close()

		for _, cid := range []string{id, id2} {
			st, err := c.Status(cid)
			if err != nil {
				b.Fatal(err)
			}
			if !st.Complete || !st.Validated {
				b.Fatalf("campaign %s did not complete and validate: %+v", cid, st)
			}
		}

		arts := make([]*flit.Artifact, shards)
		for s := 0; s < shards; s++ {
			raw, err := os.ReadFile(fmt.Sprintf("%s/artifacts/%s/shard-%d.json", dir, id, s))
			if err != nil {
				b.Fatal(err)
			}
			if arts[s], err = flit.ReadArtifact(bytes.NewReader(raw)); err != nil {
				b.Fatal(err)
			}
		}
		t0 = time.Now()
		merged := experiments.NewEngine(1)
		if err := merged.ImportArtifacts(arts...); err != nil {
			b.Fatal(err)
		}
		var got bytes.Buffer
		if err := experiments.RunCommand(merged, command, &got); err != nil {
			b.Fatal(err)
		}
		mergeSec := time.Since(t0).Seconds()
		if m := merged.CacheMetrics(); m.Runs.Misses != 0 {
			b.Fatalf("merged replay missed the cache %d times, want 0", m.Runs.Misses)
		}

		var want bytes.Buffer
		if err := experiments.RunCommand(experiments.NewEngine(1), command, &want); err != nil {
			b.Fatal(err)
		}
		if got.String() != want.String() {
			b.Fatal("merged campaign output differs from the unsharded run")
		}

		b.ReportMetric(campaignSec, "coord-campaign-sec")
		b.ReportMetric(campaign2Sec, "coord-campaign2-sec")
		b.ReportMetric(mergeSec, "coord-merge-sec")
		b.ReportMetric(float64(c.Releases()), "coord-releases")
		b.ReportMetric(float64(c.FailReports()), "coord-fail-reports")
		b.ReportMetric(float64(c.QuarantinedShards()), "coord-quarantined")
		if c.Releases() != 0 {
			b.Fatalf("loopback fleet re-leased %d shards, want 0", c.Releases())
		}
		if c.FailReports() != 0 || c.QuarantinedShards() != 0 {
			b.Fatalf("healthy loopback fleet recorded %d failure reports, %d quarantined shards, want 0/0",
				c.FailReports(), c.QuarantinedShards())
		}

		if path := os.Getenv("BENCH_SHARD_JSON"); path != "" {
			rec := map[string]any{
				"bench":               "BenchmarkCoordCampaign",
				"engine":              flit.EngineVersion,
				"unix":                time.Now().Unix(),
				"coord_campaigns":     2,
				"coord_campaign_sec":  campaignSec,
				"coord_campaign2_sec": campaign2Sec,
				"coord_merge_sec":     mergeSec,
				"coord_releases":      c.Releases(),
				"coord_fail_reports":  c.FailReports(),
				"coord_quarantined":   c.QuarantinedShards(),
			}
			if err := appendJSONLine(path, rec); err != nil {
				b.Fatalf("BENCH_SHARD_JSON: %v", err)
			}
		}
	}
}

// appendJSONLine appends one JSON object per line (a perf-trajectory log:
// append-only, diff-friendly, trivially parseable).
func appendJSONLine(path string, rec map[string]any) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// BenchmarkMPIStudy regenerates the §3.6 study: determinism under simulated
// ranks, parallel-vs-sequential deviation, and blame equivalence.
func BenchmarkMPIStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.MPIStudy(4, 3)
		if err != nil {
			b.Fatal(err)
		}
		same := 0
		for _, r := range rows {
			if !r.Checked || r.SameBlame {
				same++
			}
		}
		b.ReportMetric(float64(same), "same-blame-examples")
	}
}
