// Quickstart: define a FLiT test case for your own numerical kernel, run it
// under the full compilation matrix, and root-cause any variability with
// Bisect — the paper's Figure 1 workflow end to end on a 30-line program.
//
// The quickstart also demonstrates the distributed workflow:
//
//	quickstart -shard 0/2 -shard-out s0.json   # machine 1
//	quickstart -shard 1/2 -shard-out s1.json   # machine 2
//	quickstart -merge s0.json,s1.json          # byte-identical to plain run
//
// ... and the incremental one: -warm-start imports a prior
// artifact, -delta-out reports exactly which build/run results changed
// against that baseline, and -unroll simulates the config drift a
// long-lived campaign exists to monitor (the plain g++ -O3 matrix row
// becomes g++ -O3 -funroll-loops — value-safe, so exactly one cell's
// identity moves):
//
//	quickstart -shard 0/1 -shard-out base.json
//	quickstart -unroll -warm-start base.json -delta-out delta.json
//
// ... and the persistent one: -store DIR attaches an on-disk run store, so
// a second quickstart process pointed at the same DIR answers every
// covered evaluation from disk — no artifact plumbing at all:
//
//	quickstart -store ./cache    # computes, writes through
//	quickstart -store ./cache    # identical output, zero builds
//
// ... and the remote one: -remote URL points at a store served by
// `flit store serve`, so a second machine sharing only the URL gets the
// same zero-build warm run; -store DIR composes as a local cache tier in
// front of the server:
//
//	flit store serve -dir ./cache -addr 127.0.0.1:8400 &
//	quickstart -remote http://127.0.0.1:8400            # cross-machine warm
//
// The -shard/-merge flow above picks shard indices by hand. For the flit
// campaigns themselves, `flit coord serve` automates the hand: it leases
// shard indices to any number of `flit work -coord URL` workers under
// heartbeat-renewed leases (a crashed worker's shard is re-leased) and
// validates the merged artifact set server-side — see the "Campaign
// coordinator" section of the README.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strings"

	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/prog"
	"repro/internal/store"
)

// Step 1: describe your "source tree". One file, two functions: a dot
// product kernel (hot: optimizers love it) and a driver.
func program() *prog.Program {
	p := prog.New("quickstart")
	p.AddFile("kernel.cpp",
		&prog.Symbol{Name: "DotKernel", Exported: true, Work: 4, FPOps: 4,
			Features: prog.Features{Reduction: true, MulAdd: true, Hot: true}},
		&prog.Symbol{Name: "Scale", Exported: true, Work: 1, FPOps: 1,
			Features: prog.Features{ShortExpr: true}},
	)
	p.AddFile("main.cpp",
		&prog.Symbol{Name: "main_quickstart", Exported: true, Work: 1, FPOps: 2,
			Callees: []string{"DotKernel", "Scale"}},
	)
	return p
}

// Step 2: write the FLiT test case — the paper's four-method protocol.
type myTest struct{ p *prog.Program }

func (t *myTest) Name() string               { return "Quickstart" }
func (t *myTest) Root() string               { return "main_quickstart" }
func (t *myTest) GetInputsPerRun() int       { return 1 }
func (t *myTest) GetDefaultInput() []float64 { return []float64{0.7} }

func (t *myTest) Run(input []float64, m *link.Machine) (flit.Result, error) {
	_, done := m.Fn("main_quickstart")
	defer done()
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = math.Sin(input[0] + float64(i)*0.01)
	}
	envK, doneK := m.Fn("DotKernel")
	v := envK.Dot(xs, xs)
	doneK()
	envS, doneS := m.Fn("Scale")
	v = envS.Mul(v, 0.25)
	doneS()
	return flit.ScalarResult(v), nil
}

func (t *myTest) Compare(baseline, other flit.Result) float64 {
	return flit.L2Diff(baseline, other)
}

// opts carries the quickstart's CLI configuration.
type opts struct {
	shard     string // "i/N" shard of the matrix, artifact mode
	shardOut  string // artifact file a -shard run writes
	merge     string // comma-separated shard artifacts to merge and replay
	warmStart string // comma-separated artifacts imported into the cache
	deltaOut  string // DeltaReport file a warm-started run writes
	unroll    bool   // mutate the matrix (incremental-campaign demo)
	store     string // persistent run-store directory
	remote    string // remote run-store URL (flit store serve)
}

func main() {
	var o opts
	flag.StringVar(&o.shard, "shard", "", `run one shard "i/N" of the matrix and write an artifact`)
	flag.StringVar(&o.shardOut, "shard-out", "", "artifact file the -shard run writes")
	flag.StringVar(&o.merge, "merge", "", "comma-separated shard artifacts to merge and replay")
	flag.StringVar(&o.warmStart, "warm-start", "", "comma-separated artifacts whose results are imported into the cache")
	flag.StringVar(&o.deltaOut, "delta-out", "", "write the run's DeltaReport vs the -warm-start baseline to FILE")
	flag.BoolVar(&o.unroll, "unroll", false,
		"mutate the matrix: the plain g++ -O3 row becomes g++ -O3 -funroll-loops (incremental-campaign demo)")
	flag.StringVar(&o.store, "store", "",
		"persistent run-store directory: misses consult it before building, results are written through")
	flag.StringVar(&o.remote, "remote", "",
		"remote run-store URL (flit store serve); composes with -store as a local cache tier")
	flag.Parse()
	if err := cli(o, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// command is the canonical replay command recorded in artifacts, so a
// merge reproduces the run — mutation flag included — byte for byte.
func (o opts) command() []string {
	c := []string{"quickstart"}
	if o.unroll {
		c = append(c, "-unroll")
	}
	return c
}

// cli dispatches between a plain run, one shard of a distributed run, and
// the merge replay — the same record/replay protocol `flit merge` uses —
// with optional warm-start/delta tracking on the run paths.
func cli(o opts, w io.Writer) error {
	if o.merge != "" {
		if o.shard != "" || o.shardOut != "" || o.warmStart != "" || o.deltaOut != "" || o.unroll {
			return fmt.Errorf("-merge replays recorded artifacts and combines with no other flag")
		}
		cache := flit.NewCache()
		if err := attachStore(cache, o.store, o.remote); err != nil {
			return err
		}
		var arts []*flit.Artifact
		for _, path := range strings.Split(o.merge, ",") {
			a, err := flit.ReadArtifactFile(path)
			if err != nil {
				return err
			}
			arts = append(arts, a)
		}
		if err := flit.ValidateShardSet(arts); err != nil {
			return err
		}
		for _, a := range arts {
			if err := cache.Import(a); err != nil {
				return err
			}
		}
		// Replay the recorded command — including a recorded -unroll
		// mutation — with every matrix evaluation answered from the merged
		// cache: byte-identical to the unsharded run.
		unroll := false
		for _, arg := range arts[0].Command {
			if arg == "-unroll" {
				unroll = true
			}
		}
		return runWith(w, exec.Shard{}, cache, 0, unroll)
	}
	shard, err := exec.ParseShard(o.shard)
	if err != nil {
		return err
	}
	cache := flit.NewCache()
	if err := attachStore(cache, o.store, o.remote); err != nil {
		return err
	}
	var tracker *flit.DeltaTracker
	if o.warmStart != "" {
		tracker = flit.NewDeltaTracker(false)
		for _, path := range strings.Split(o.warmStart, ",") {
			a, err := flit.ReadArtifactFile(path)
			if err != nil {
				return err
			}
			if err := tracker.Seed(cache, a); err != nil {
				return err
			}
		}
	} else if o.deltaOut != "" {
		return fmt.Errorf("-delta-out requires -warm-start BASELINE")
	}
	// Any -shard request runs in artifact mode — including "0/1", the
	// degenerate single-shard set `flit merge` accepts as the N=1
	// partition.
	if o.shard != "" {
		if o.shardOut == "" {
			return fmt.Errorf("-shard requires -shard-out FILE")
		}
		if err := runWith(io.Discard, shard, cache, 0, o.unroll); err != nil {
			return err
		}
		art := cache.Export(shard, o.command())
		art.Stamp()
		if err := flit.WriteArtifactFile(art, o.shardOut); err != nil {
			return err
		}
		fmt.Fprintf(w, "shard %s: %d runs, %d costs -> %s\n",
			shard, len(art.Runs), len(art.Costs), o.shardOut)
		return emitDelta(tracker, cache, o, w)
	}
	if err := runWith(w, exec.Shard{}, cache, 0, o.unroll); err != nil {
		return err
	}
	return emitDelta(tracker, cache, o, w)
}

// attachStore builds the cache's persistent tier from -store and -remote:
// the local Disk store (created if absent, rejected if fenced to a
// different engine version) in front of the Remote client when both are
// given, or either alone. A no-op with neither.
func attachStore(cache *flit.Cache, dir, remote string) error {
	var tiers []store.Store
	if dir != "" {
		d, err := store.Open(dir, flit.EngineVersion)
		if err != nil {
			return err
		}
		tiers = append(tiers, d)
	}
	if remote != "" {
		r, err := store.NewRemote(remote, flit.EngineVersion, nil)
		if err != nil {
			return err
		}
		tiers = append(tiers, r)
	}
	if s := store.Tier(tiers...); s != nil {
		cache.SetStore(s)
	}
	return nil
}

// emitDelta prints the warm-started run's delta summary and writes the
// structured report when asked; without a baseline it is a no-op.
func emitDelta(tracker *flit.DeltaTracker, cache *flit.Cache, o opts, w io.Writer) error {
	if tracker == nil {
		return nil
	}
	rep := tracker.Report(cache, o.command())
	fmt.Fprintln(w, rep.Summary())
	if o.deltaOut == "" {
		return nil
	}
	return flit.WriteDeltaReportFile(rep, o.deltaOut)
}

func run(w io.Writer) error {
	return runWith(w, exec.Shard{}, flit.NewCache(), 0, false)
}

func runWith(w io.Writer, shard exec.Shard, cache *flit.Cache, workers int, unroll bool) error {
	p := program()
	matrix := comp.Matrix()
	if unroll {
		// The campaign's config drift: a value-safe switch lands on the
		// plain g++ -O3 row, so exactly one cell changes identity while
		// every result stays bitwise what it was.
		for i, c := range matrix {
			if c.Compiler == comp.GCC && c.OptLevel == "-O3" && c.Switches == "" {
				matrix[i].Switches = "-funroll-loops"
			}
		}
	}
	// Step 3: pick the execution substrate — a worker pool fanning out the
	// matrix cells, a cache memoizing repeated build/run pairs, and
	// (optionally) this process's shard of a distributed run. Results are
	// bit-identical at any worker count, and bisect searches launched
	// through the workflow inherit pool and cache.
	wf := &core.Workflow{
		Suite: &flit.Suite{
			Prog:      p,
			Tests:     []flit.TestCase{&myTest{p: p}},
			Baseline:  comp.Baseline(),      // trusted: g++ -O0
			Reference: comp.PerfReference(), // speedups vs g++ -O2
			Pool:      exec.New(workers),
			Cache:     cache,
			Shard:     shard,
		},
		Matrix: matrix, // all 244 compilations of the study
	}

	// Level 1 + 2: which compilations deviate, and what does speed cost?
	analysis, err := wf.Analyze()
	if err != nil {
		return err
	}
	rec := analysis.Recommendations()[0]
	fmt.Fprintf(w, "fastest bitwise-reproducible: %-40s speedup %.3f\n",
		rec.FastestEqual.Comp, rec.FastestEqualSpeedup)
	fmt.Fprintf(w, "fastest overall:              %-40s speedup %.3f (reproducible: %v)\n",
		rec.FastestAny.Comp, rec.FastestAnySpeedup, rec.FastestIsReproducible)

	variable := analysis.Results.VariableRuns()
	fmt.Fprintf(w, "variability-inducing compilations: %d of %d\n",
		len(variable), len(wf.Matrix))
	if len(variable) == 0 {
		return nil
	}

	// Level 3: root-cause one of them down to the function.
	target := variable[len(variable)-1].Comp
	fmt.Fprintf(w, "\nbisecting %s ...\n", target)
	report, err := wf.Bisect(wf.Suite.Tests[0], target, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d program executions\n", report.Execs)
	for _, ff := range report.Files {
		fmt.Fprintf(w, "  file %-14s (magnitude %.3g, symbol search: %s)\n",
			ff.File, ff.Value, ff.Status)
		for _, sf := range ff.Symbols {
			fmt.Fprintf(w, "    -> %s (%.3g)\n", sf.Item, sf.Value)
		}
	}
	return nil
}
