// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§3). Each bench prints the regenerated artifact once and
// reports the headline shape numbers as custom metrics, so
// `go test -bench=. -benchmem` reproduces the study end to end.
//
// Absolute values differ from the paper: the substrate is a simulated
// toolchain (see README.md). Performance claims are measured by the
// perfbench module (perfbench/), not by these benchmarks.
package repro

import (
	"sync"
	"testing"

	"repro/internal/comp"
	"repro/internal/experiments"
	"repro/internal/inject"
)

// benchEngine is shared by every benchmark, so `go test -bench .` computes
// the MFEM matrix behind Table 1, Figures 4-6, Table 2 and the Findings
// once.
var benchEngine = experiments.NewEngine(0)

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
		rows, err := benchEngine.Table1()
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
			s, err := benchEngine.Figure4(ex)
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
		rows, err := benchEngine.Figure5()
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
		rows, err := benchEngine.Figure6()
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
		rows, total, err := benchEngine.Table2(0)
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
		fs, err := benchEngine.Findings()
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
		rows, err := benchEngine.Table4()
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
		res, err := benchEngine.RunNaNBug()
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
		sum, err := benchEngine.Table5(1)
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

// BenchmarkMPIStudy regenerates the §3.6 study: determinism under simulated
// ranks, parallel-vs-sequential deviation, and blame equivalence.
func BenchmarkMPIStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchEngine.MPIStudy(4, 3)
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
