package flit

import (
	"strings"
	"testing"

	"repro/internal/comp"
	"repro/internal/exec"
	"repro/internal/link"
)

// TestPlanRunKeyMatchesEagerKeys: the key-first address space is the
// built executable's — a plan-derived run or cost key is byte-identical to
// the key the linked executable produces, so key-first lookups hit records
// keyed by either.
func TestPlanRunKeyMatchesEagerKeys(t *testing.T) {
	s := newSuite()
	plan := link.FullBuildPlan(s.Prog, s.Baseline)
	b := link.NewBuilder(plan)
	ex, err := link.Link(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := PlanRunKey(b, s.Tests[0]), RunKey(ex, s.Tests[0]); got != want {
		t.Fatalf("PlanRunKey %q != RunKey %q", got, want)
	}
	if got, want := planCostKey(b, "Kernel"), ex.Key()+"\x00Kernel"; got != want {
		t.Fatalf("planCostKey %q != executable cost key %q", got, want)
	}
	if b.Built() {
		t.Fatal("key construction materialized the plan")
	}
}

// TestRunAllPlannedLazyOnHit: the build thunk is invoked on a miss and
// never on a hit; results are bit-identical either way; the cache's build
// accounting sees one materialization and one skipped build.
func TestRunAllPlannedLazyOnHit(t *testing.T) {
	s := newSuite()
	cache := NewCache()
	plan := link.FullBuildPlan(s.Prog, s.Baseline)

	cold := link.NewBuilder(plan)
	first, err := cache.RunAllPlanned(s.Tests[0], cold)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Built() {
		t.Fatal("miss did not materialize the plan")
	}

	warm := link.NewBuilder(plan)
	again, err := cache.RunAllPlanned(s.Tests[0], warm)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Built() {
		t.Fatal("hit materialized the plan — the key-first fast path built anyway")
	}
	if L2Diff(first, again) != 0 {
		t.Fatal("key-first hit returned different bits")
	}
	costA, err := cache.CostPlanned(link.NewBuilder(plan), "Kernel")
	if err != nil {
		t.Fatal(err)
	}
	costWarm := link.NewBuilder(plan)
	costB, err := cache.CostPlanned(costWarm, "Kernel")
	if err != nil {
		t.Fatal(err)
	}
	if costWarm.Built() {
		t.Fatal("cost hit materialized the plan")
	}
	if costA != costB {
		t.Fatalf("cost hit %g != miss %g", costB, costA)
	}

	m := cache.Metrics()
	if m.Builds != 2 { // the run miss and the cost miss each materialized once
		t.Errorf("Builds = %d, want 2", m.Builds)
	}
	if m.SkippedBuilds != 2 { // the warm run builder and the warm cost builder
		t.Errorf("SkippedBuilds = %d, want 2", m.SkippedBuilds)
	}

	// The uncached reference agrees bit for bit.
	ex, err := link.Link(plan)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunAll(s.Tests[0], ex)
	if err != nil {
		t.Fatal(err)
	}
	if L2Diff(first, ref) != 0 {
		t.Fatal("key-first result differs from the uncached run")
	}

	// A nil cache still works — it just builds and runs.
	var nc *Cache
	nb := link.NewBuilder(plan)
	r, err := nc.RunAllPlanned(s.Tests[0], nb)
	if err != nil || L2Diff(first, r) != 0 {
		t.Fatalf("nil-cache RunAllPlanned: %v (diff %g)", err, L2Diff(first, r))
	}
	if !nb.Built() {
		t.Fatal("nil cache cannot answer without building")
	}
	if c, err := nc.CostPlanned(link.NewBuilder(plan), "Kernel"); err != nil || c != costA {
		t.Fatalf("nil-cache CostPlanned = %g, %v; want %g", c, err, costA)
	}
}

// TestRunAllPlannedMemoizesBuildError: an unbuildable plan's error is
// memoized under its key like any run error, and CostPlanned surfaces it
// too — but never as an exportable cost record.
func TestRunAllPlannedMemoizesBuildError(t *testing.T) {
	s := newSuite()
	cache := NewCache()
	bad := link.Plan{Prog: s.Prog, Baseline: s.Baseline,
		FileComp: map[string]comp.Compilation{"nosuch.cpp": comp.PerfReference()}}
	if _, err := cache.RunAllPlanned(s.Tests[0], link.NewBuilder(bad)); err == nil {
		t.Fatal("unbuildable plan ran")
	}
	second := link.NewBuilder(bad)
	if _, err := cache.RunAllPlanned(s.Tests[0], second); err == nil {
		t.Fatal("memoized build error lost")
	}
	if second.Built() {
		t.Fatal("memoized build error still re-linked the plan")
	}
	if _, err := cache.CostPlanned(link.NewBuilder(bad), "Kernel"); err == nil {
		t.Fatal("CostPlanned succeeded on an unbuildable plan")
	}
	art := cache.Export(exec.Shard{}, nil)
	if len(art.Costs) != 0 {
		t.Fatalf("errored cost entry exported: %+v", art.Costs)
	}
}

// TestWarmStartedMatrixBuildsNothing: the acceptance pin for key-first
// execution — a matrix run whose every evaluation is covered by imported
// artifacts constructs zero executables, at -j 1 and fanned out, and its
// Results are byte-identical to the cold run's.
func TestWarmStartedMatrixBuildsNothing(t *testing.T) {
	matrix := comp.Matrix()

	cold := newSuite()
	cold.Cache = NewCache()
	coldRes, err := cold.RunMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	want := matrixFingerprint(coldRes)
	art := cold.Cache.Export(exec.Shard{}, []string{"matrix"})
	if cm := cold.Cache.Metrics(); cm.Builds == 0 {
		t.Fatal("cold run reported zero builds — the accounting is broken")
	}

	for _, j := range []int{1, 8} {
		warm := newSuite()
		warm.Cache = NewCache()
		if j > 1 {
			warm.Pool = exec.New(j)
		}
		if err := warm.Cache.Import(art); err != nil {
			t.Fatal(err)
		}
		warmRes, err := warm.RunMatrix(matrix)
		if err != nil {
			t.Fatal(err)
		}
		if got := matrixFingerprint(warmRes); got != want {
			t.Errorf("j=%d: warm-started matrix differs from cold run", j)
		}
		m := warm.Cache.Metrics()
		if m.Builds != 0 {
			t.Errorf("j=%d: fully covered matrix materialized %d executables, want 0", j, m.Builds)
		}
		if m.SkippedBuilds == 0 {
			t.Errorf("j=%d: no skipped builds recorded on a fully warm run", j)
		}
		if m.Runs.Misses != 0 {
			t.Errorf("j=%d: %d run misses on a fully covered matrix", j, m.Runs.Misses)
		}
	}
}

// TestPartiallyWarmMatrixBuildsOnlyInvalidated: delta-aware cell skipping —
// seed a baseline that covers everything except one compilation's cells;
// the re-run must materialize exactly that cell's build and nothing else.
func TestPartiallyWarmMatrixBuildsOnlyInvalidated(t *testing.T) {
	matrix := comp.Matrix()
	victim := matrix[len(matrix)/2]

	cold := newSuite()
	cold.Cache = NewCache()
	coldRes, err := cold.RunMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	want := matrixFingerprint(coldRes)

	// Strip the victim compilation's records from the baseline, simulating
	// a matrix edit that invalidated exactly one cell column.
	full := cold.Cache.Export(exec.Shard{}, nil)
	victimKey := link.FullBuildPlan(cold.Prog, victim).Key()
	pruned := &Artifact{Version: full.Version, Engine: full.Engine, Shard: full.Shard}
	for _, r := range full.Runs {
		if !strings.HasPrefix(r.Key, victimKey+"\x00") {
			pruned.Runs = append(pruned.Runs, r)
		}
	}
	for _, c := range full.Costs {
		if !strings.HasPrefix(c.Key, victimKey+"\x00") {
			pruned.Costs = append(pruned.Costs, c)
		}
	}
	if len(pruned.Runs) == len(full.Runs) {
		t.Fatal("victim key matched no runs — the pruning is vacuous")
	}

	warm := newSuite()
	warm.Cache = NewCache()
	if err := warm.Cache.Import(pruned); err != nil {
		t.Fatal(err)
	}
	warmRes, err := warm.RunMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	if got := matrixFingerprint(warmRes); got != want {
		t.Error("partially warm matrix differs from cold run")
	}
	m := warm.Cache.Metrics()
	if m.Builds != 1 {
		t.Errorf("one invalidated cell materialized %d executables, want exactly 1", m.Builds)
	}
	if m.Runs.Misses != int64(len(warm.Tests)) {
		t.Errorf("run misses = %d, want %d (the invalidated cell's tests)",
			m.Runs.Misses, len(warm.Tests))
	}
}
