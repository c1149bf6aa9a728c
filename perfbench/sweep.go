package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/internal/apps/laghos"
	"repro/internal/apps/lulesh"
	"repro/internal/apps/mfem"
	"repro/internal/comp"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/flit"
	"repro/internal/link"
)

// The committed golden outputs of the paper's sweep: the SHA-256 of
// Engine.SweepDigest and the paper's bisect execution count over it
// (Tables 2 and 4 and the NaN-bug search). Every sweep the benchmark
// runs — cold, traced, or replayed from a store tier — must reproduce
// both.
const (
	goldenDigestSHA256 = "fc687d6afee64598b8d017e766fee3b4d924ccd30dd17f0e99eee36f372d33b4"
	goldenBisectExecs  = 1556
)

// Sampling knobs of Engine.SweepDigest, repeated here so the traced
// phases call the same public methods with the same arguments.
const (
	sweepTable2Limit  = 30
	sweepTable5Stride = 13
)

func digestSHA(digest string) string {
	sum := sha256.Sum256([]byte(digest))
	return hex.EncodeToString(sum[:])
}

// checkSweep records whether one sweep reproduced the golden digest and
// bisect accounting.
func checkSweep(r *report, what, digest string, err error, execs int64) {
	if err != nil {
		r.check(false, "%s: %v", what, err)
		return
	}
	got := digestSHA(digest)
	r.check(got == goldenDigestSHA256, "%s: digest sha256 %s, want %s", what, got, goldenDigestSHA256)
	r.check(execs == goldenBisectExecs, "%s: bisect execs %d, want %d", what, execs, goldenBisectExecs)
}

// prepareStudy builds what every sweep needs before its first evaluation:
// the three applications' programs, the compilation matrix, and an engine
// with its MFEM suite. It is the whole of sweep-cold's set-up: the child
// processes measure times run exactly this.
func prepareStudy(workers int) *experiments.Engine {
	mfem.Program()
	laghos.Program()
	lulesh.Program()
	comp.Matrix()
	eng := experiments.NewEngine(workers)
	eng.Suite()
	return eng
}

// sweepPhase is one public Engine call of SweepDigest, in its order.
type sweepPhase struct {
	metric string
	run    func(e *experiments.Engine) error
}

var sweepPhases = []sweepPhase{
	{"experiments.table1_s", func(e *experiments.Engine) error { _, err := e.Table1(); return err }},
	{"experiments.figures_s", func(e *experiments.Engine) error {
		if _, err := e.Figure5(); err != nil {
			return err
		}
		_, err := e.Figure6()
		return err
	}},
	{"experiments.table2_s", func(e *experiments.Engine) error { _, _, err := e.Table2(sweepTable2Limit); return err }},
	{"experiments.motivation_s", func(*experiments.Engine) error { _, err := experiments.RunMotivation(); return err }},
	{"experiments.table4_s", func(e *experiments.Engine) error { _, err := e.Table4(); return err }},
	{"experiments.nanbug_s", func(e *experiments.Engine) error { _, err := e.RunNaNBug(); return err }},
	{"experiments.table5_s", func(e *experiments.Engine) error { _, err := e.Table5(sweepTable5Stride); return err }},
}

// tracedSweep times an untraced cold sweep, then the same study phase by
// phase on a second fresh engine, and reports the phases, the cache and
// bisect counters of the phased engine, and the gap between the two as
// the tracing overhead. The phased engine's digest (rendered afterwards
// from its memoized results) and bisect count are checked like any
// sweep's.
func tracedSweep(r *report, workers int, prof *sectionProfiler) (*experiments.Engine, error) {
	runtime.GC()
	eng := experiments.NewEngine(workers)
	t0 := time.Now()
	digest, err := eng.SweepDigest()
	untraced := time.Since(t0).Seconds()
	checkSweep(r, "untraced sweep", digest, err, eng.BisectStats().Execs)

	runtime.GC()
	eng = experiments.NewEngine(workers)
	prof.start("sweep-cold")
	var traced float64
	for _, p := range sweepPhases {
		t0 := time.Now()
		err := p.run(eng)
		d := time.Since(t0).Seconds()
		if err != nil {
			prof.stop()
			return nil, fmt.Errorf("%s: %w", p.metric, err)
		}
		r.set(p.metric, d)
		traced += d
	}
	prof.stop()
	bs := eng.BisectStats()
	m := eng.CacheMetrics()
	digest, err = eng.SweepDigest()
	checkSweep(r, "traced sweep", digest, err, bs.Execs)

	r.set("trace.untraced_cold_s", untraced)
	r.set("trace.traced_cold_s", traced)
	r.set("trace.overhead_pct", 100*(traced-untraced)/untraced)
	r.set("flit.run_hits", float64(m.Runs.Hits))
	r.set("flit.run_misses", float64(m.Runs.Misses))
	r.set("flit.run_hit_ratio", float64(m.Runs.Hits)/float64(m.Runs.Hits+m.Runs.Misses))
	r.set("flit.builds", float64(m.Builds))
	r.set("flit.skipped_builds", float64(m.SkippedBuilds))
	r.set("bisect.searches", float64(bs.Searches))
	r.set("bisect.execs", float64(bs.Execs))
	r.set("bisect.spec_execs", float64(bs.SpecExecs))
	return eng, nil
}

// linkProbe times link.Link over the full-build plan of every
// compilation in the matrix.
func linkProbe(r *report) error {
	p := mfem.Program()
	var t timer
	for _, c := range comp.Matrix() {
		plan := link.FullBuildPlan(p, c)
		t0 := time.Now()
		ex, err := link.Link(plan)
		t.add(time.Since(t0))
		if err != nil {
			return fmt.Errorf("link %s: %w", c, err)
		}
		r.check(ex.Key() == plan.Key(), "link %s: executable key differs from its plan key", c)
	}
	r.set("link.build_n", t.count())
	r.set("link.build_s", t.seconds())
	return nil
}

// matrixProbe runs the MFEM matrix at -j 1 on a benchmark-built suite
// whose cases are wrapped in timedCase, so flit.matrix_s − flit.testrun_s
// is the runner's own time: planning, linking, caching and comparison.
// Every cell must match the engine's own matrix results.
func matrixProbe(r *report, eng *experiments.Engine) error {
	want, err := eng.Results()
	if err != nil {
		return err
	}
	var runs timer
	ref := eng.Suite()
	suite := &flit.Suite{
		Prog:      ref.Prog,
		Tests:     timeCases(mfem.AllCases(), &runs),
		Baseline:  ref.Baseline,
		Reference: ref.Reference,
		Pool:      exec.New(1),
		Cache:     flit.NewCache(),
	}
	runtime.GC()
	t0 := time.Now()
	res, err := suite.RunMatrix(comp.Matrix())
	matrix := time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("wrapped matrix: %w", err)
	}
	for _, name := range want.TestNames() {
		got, exp := res.ForTest(name), want.ForTest(name)
		same := len(got) == len(exp)
		for i := 0; same && i < len(got); i++ {
			same = got[i].CompareVal == exp[i].CompareVal && got[i].Time == exp[i].Time &&
				(got[i].Err == nil) == (exp[i].Err == nil)
		}
		r.check(same, "wrapped matrix: %s cells differ from the engine's", name)
	}
	r.set("flit.testrun_n", runs.count())
	r.set("flit.testrun_s", runs.seconds())
	r.set("flit.matrix_s", matrix)
	r.set("flit.matrix_self_s", matrix-runs.seconds())
	return nil
}
