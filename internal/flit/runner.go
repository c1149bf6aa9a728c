package flit

import (
	"fmt"
	"sort"

	"repro/internal/comp"
	"repro/internal/exec"
	"repro/internal/link"
	"repro/internal/prog"
)

// Suite binds a program, its tests, and the trusted baseline compilation.
type Suite struct {
	Prog *prog.Program
	// Tests are the user's FLiT test cases.
	Tests []TestCase
	// Baseline is the trusted compilation every result is compared to
	// (g++ -O0 in the MFEM study).
	Baseline comp.Compilation
	// Reference is the compilation speedups are reported against
	// (g++ -O2 in the paper). Zero value means Baseline.
	Reference comp.Compilation
	// Pool fans out the independent cells of the compilation × test matrix.
	// nil runs sequentially; any worker count produces bit-identical
	// Results, collected in matrix order regardless of completion order.
	Pool *exec.Pool
	// Cache memoizes build/run pairs across cells and across consumers
	// (bisect searches, experiment drivers). nil disables memoization.
	Cache *Cache
	// Shard restricts the run to this shard's slice of the deterministic
	// job index space: the matrix cells are partitioned by compilation
	// index, while the baseline runs execute on every shard (cheap shared
	// prefix state every owned cell compares against). A sharded run's
	// Results cover just the owned cells — correctly classified, but
	// partial; its purpose is to fill the Cache for artifact export, and
	// `flit merge` replays the full run against the union of the shards'
	// caches. The zero value runs everything.
	Shard exec.Shard
}

// RunResult is one cell of the compilation matrix: one test under one
// compilation.
type RunResult struct {
	Test        string
	Comp        comp.Compilation
	CompareVal  float64 // user metric vs the baseline result; 0 == equal
	Time        float64 // deterministic cost-model runtime
	Err         error   // non-nil if the executable failed to run
	RelativeErr float64 // CompareVal / ||baseline||
}

// Variable reports whether this run deviated from the baseline.
func (r RunResult) Variable() bool { return r.Err == nil && r.CompareVal > 0 }

// Results is the store produced by a matrix run.
type Results struct {
	Suite    *Suite
	Matrix   []comp.Compilation
	byTest   map[string][]RunResult
	baseline map[string]Result
	baseNorm map[string]float64
	refTime  map[string]float64
}

// refComp resolves the speedup-reference compilation.
func (s *Suite) refComp() comp.Compilation {
	if s.Reference == (comp.Compilation{}) {
		return s.Baseline
	}
	return s.Reference
}

// RunMatrix executes every test under every compilation, comparing each
// result against the baseline compilation's result. Full builds are never
// object-file mixes, so they cannot segfault; an error in a cell is
// recorded, not fatal.
//
// Execution is key-first: every cell (and the shared baseline and
// reference builds) is a lazily-materialized plan, looked up in the Cache
// by plan key before anything links. A cached or warm-started cell replays
// its memoized result with zero build work — no plan validation, no
// ABI-hazard scan, no Executable, no cost-model traversal — which is what
// makes re-running a warmed campaign proportional to the cells an edit
// actually invalidated.
//
// With a Pool on the suite the compilations evaluate concurrently — each
// cell is an independent build/run pair, the paper's massively parallel
// sweep — and the collected Results are bit-identical to a sequential run:
// cells are stored in matrix × suite order, and every evaluation is a pure
// function of (compilation, test).
func (s *Suite) RunMatrix(matrix []comp.Compilation) (*Results, error) {
	res := &Results{
		Suite:    s,
		Matrix:   matrix,
		byTest:   make(map[string][]RunResult, len(s.Tests)),
		baseline: make(map[string]Result, len(s.Tests)),
		baseNorm: make(map[string]float64, len(s.Tests)),
		refTime:  make(map[string]float64, len(s.Tests)),
	}
	refB := link.NewBuilder(link.FullBuildPlan(s.Prog, s.refComp()))
	baseB := link.NewBuilder(link.FullBuildPlan(s.Prog, s.Baseline))
	type baseVal struct {
		res     Result
		norm    float64
		refTime float64
	}
	// The baselines are shared prefix state and run on every shard: all of
	// a shard's cells compare against them, so skipping non-owned baselines
	// would corrupt the Variable classification of sharded Results (and
	// with it every consumer that selects work from them, e.g. Table 2's
	// variable-pair selection). They are O(tests) against the O(tests ×
	// compilations) cells the shard actually partitions — and behind the
	// shared builders they are one build each, at most, across all tests.
	bases, err := exec.Map(s.Pool, len(s.Tests), func(i int) (baseVal, error) {
		t := s.Tests[i]
		base, err := s.Cache.RunAllPlanned(t, baseB)
		if err != nil {
			return baseVal{}, fmt.Errorf("flit: baseline run of %s: %w", t.Name(), err)
		}
		refTime, err := s.Cache.CostPlanned(refB, t.Root())
		if err != nil {
			return baseVal{}, fmt.Errorf("flit: building reference: %w", err)
		}
		return baseVal{res: base, norm: base.Norm(), refTime: refTime}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, t := range s.Tests {
		res.baseline[t.Name()] = bases[i].res
		res.baseNorm[t.Name()] = bases[i].norm
		res.refTime[t.Name()] = bases[i].refTime
	}
	ownCells := s.Shard.Indices(len(matrix))
	cells, err := exec.Map(s.Pool, len(ownCells), func(k int) ([]RunResult, error) {
		ci := ownCells[k]
		c := matrix[ci]
		cellB := link.NewBuilder(link.FullBuildPlan(s.Prog, c))
		row := make([]RunResult, len(s.Tests))
		for ti, t := range s.Tests {
			rr := RunResult{Test: t.Name(), Comp: c}
			cost, err := s.Cache.CostPlanned(cellB, t.Root())
			if err != nil {
				return nil, fmt.Errorf("flit: building %s: %w", c, err)
			}
			rr.Time = cost
			got, err := s.Cache.RunAllPlanned(t, cellB)
			if err != nil {
				rr.Err = err
			} else {
				rr.CompareVal = t.Compare(res.baseline[t.Name()], got)
				if n := res.baseNorm[t.Name()]; n > 0 {
					rr.RelativeErr = rr.CompareVal / n
				} else {
					rr.RelativeErr = rr.CompareVal
				}
			}
			row[ti] = rr
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	// Row and column counts are known up front, so the per-test views are
	// allocated exactly once and filled by index — no per-cell append/grow
	// over the O(tests × compilations) result space.
	for _, t := range s.Tests {
		res.byTest[t.Name()] = make([]RunResult, len(cells))
	}
	for k, row := range cells {
		for ti, rr := range row {
			res.byTest[s.Tests[ti].Name()][k] = rr
		}
	}
	return res, nil
}

// ForTest returns the runs of one test in matrix order.
func (r *Results) ForTest(test string) []RunResult { return r.byTest[test] }

// TestNames returns the tests in suite order.
func (r *Results) TestNames() []string {
	out := make([]string, 0, len(r.Suite.Tests))
	for _, t := range r.Suite.Tests {
		out = append(out, t.Name())
	}
	return out
}

// Baseline returns the trusted result for one test.
func (r *Results) Baseline(test string) Result { return r.baseline[test] }

// Speedup returns Time(reference)/Time(run): >1 means faster than g++ -O2.
func (r *Results) Speedup(run RunResult) float64 {
	ref := r.refTime[run.Test]
	if run.Time <= 0 {
		return 0
	}
	return ref / run.Time
}

// VariableRuns returns every (test, compilation) run that deviated.
func (r *Results) VariableRuns() []RunResult {
	var out []RunResult
	for _, t := range r.TestNames() {
		for _, rr := range r.byTest[t] {
			if rr.Variable() {
				out = append(out, rr)
			}
		}
	}
	return out
}

// CompilerRunStats counts variable runs and total runs per compiler
// (Table 1's "# Variable Runs x of y" column).
func (r *Results) CompilerRunStats() map[string][2]int {
	out := map[string][2]int{}
	for _, t := range r.TestNames() {
		for _, rr := range r.byTest[t] {
			v := out[rr.Comp.Compiler]
			v[1]++
			if rr.Variable() {
				v[0]++
			}
			out[rr.Comp.Compiler] = v
		}
	}
	return out
}

// BestAverageCompilation returns, for one compiler, the compilation with the
// best average speedup across all tests, and that average (Table 1's "Best
// Flags" and "Speedup" columns).
func (r *Results) BestAverageCompilation(compiler string) (comp.Compilation, float64) {
	type agg struct {
		sum float64
		n   int
	}
	sums := map[string]*agg{}
	comps := map[string]comp.Compilation{}
	for _, t := range r.TestNames() {
		for _, rr := range r.byTest[t] {
			if rr.Comp.Compiler != compiler || rr.Err != nil {
				continue
			}
			k := rr.Comp.Key()
			if sums[k] == nil {
				sums[k] = &agg{}
				comps[k] = rr.Comp
			}
			sums[k].sum += r.Speedup(rr)
			sums[k].n++
		}
	}
	bestKey, bestAvg := "", -1.0
	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if avg := sums[k].sum / float64(sums[k].n); avg > bestAvg {
			bestAvg, bestKey = avg, k
		}
	}
	return comps[bestKey], bestAvg
}

// FastestEqual returns the fastest bitwise-equal run of one test restricted
// to one compiler ("" means any), and whether such a run exists.
func (r *Results) FastestEqual(test, compiler string) (RunResult, bool) {
	return r.fastest(test, compiler, false)
}

// FastestVariable returns the fastest variability-exhibiting run of one
// test restricted to one compiler ("" means any).
func (r *Results) FastestVariable(test, compiler string) (RunResult, bool) {
	return r.fastest(test, compiler, true)
}

func (r *Results) fastest(test, compiler string, variable bool) (RunResult, bool) {
	best := RunResult{}
	found := false
	for _, rr := range r.byTest[test] {
		if rr.Err != nil || rr.Variable() != variable {
			continue
		}
		if compiler != "" && rr.Comp.Compiler != compiler {
			continue
		}
		if !found || rr.Time < best.Time {
			best, found = rr, true
		}
	}
	return best, found
}

// SortedBySpeed returns one test's successful runs ordered slowest to
// fastest (the x-axis of Figure 4).
func (r *Results) SortedBySpeed(test string) []RunResult {
	var out []RunResult
	for _, rr := range r.byTest[test] {
		if rr.Err == nil {
			out = append(out, rr)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time > out[j].Time })
	return out
}

// ErrorSpread returns the min, median, and max relative error over the
// variable runs of one test (Figure 6's boxplot rows). ok is false when the
// test had no variable runs.
func (r *Results) ErrorSpread(test string) (min, median, max float64, ok bool) {
	var errs []float64
	for _, rr := range r.byTest[test] {
		if rr.Variable() {
			errs = append(errs, rr.RelativeErr)
		}
	}
	if len(errs) == 0 {
		return 0, 0, 0, false
	}
	sort.Float64s(errs)
	return errs[0], errs[len(errs)/2], errs[len(errs)-1], true
}
