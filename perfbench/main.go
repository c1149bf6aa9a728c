// Command perfbench is the repository's benchmark. It runs one named
// workload against the FLiT engine, checks the outputs against committed
// golden values, and prints one JSON result line with every metric
// BENCHMARK.json declares for the mode:
//
//	perfbench --workload sweep-cold --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics of the workload, untraced;
// --trace 1 runs the traced layer census and prints the per-layer
// metrics. README.md describes the workloads, the metrics and what each
// layer metric is expected to move. run.sh builds and runs it from the
// repository root.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/experiments"
)

var workloads = []string{"sweep-cold", "store-tiers", "coord-reads"}

// sizes are the workloads' fixed dimensions; tests shrink them.
type sizes struct {
	probes      int // timed set-ups of sweep-cold (child processes)
	storeSetups int // timed set-ups of store-tiers
	coordSetups int // timed set-ups of coord-reads
	campaigns   int // campaigns the coordinator holds
	shards      int // shards per campaign
	passIters   int // coord-reads iterations per client in one pass
	tracedIters int // iterations per client in the traced coordinator loop
}

var defaultSizes = sizes{probes: 21, storeSetups: 2, coordSetups: 3, campaigns: 1000, shards: 16, passIters: 100, tracedIters: 100}

// env is what every workload runs with.
type env struct {
	workload string
	seed     uint64
	seconds  int
	workers  int    // engine workers and scheduling clients: nproc
	data     string // scratch directory for stores and journals
	sizes
}

// coordOps returns the coordinator loop for this environment.
func (e env) coordOps(iters int) *coordOps {
	return &coordOps{clients: e.workers, campaigns: e.campaigns, shards: e.shards,
		iters: iters, seed: e.seed, data: e.data}
}

func main() { os.Exit(run()) }

func run() int {
	e := env{sizes: defaultSizes}
	flag.StringVar(&e.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloads))
	flag.Uint64Var(&e.seed, "seed", 1, "seed for the workload's inputs")
	flag.IntVar(&e.seconds, "seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced layer census")
	probe := flag.Bool("setup-probe", false, "build the study's inputs and engine, then exit (sweep-cold set-up is timed over this)")
	flag.Parse()
	e.workers = runtime.NumCPU()
	if *probe {
		prepareStudy(e.workers)
		return 0
	}
	known := false
	for _, w := range workloads {
		known = known || w == e.workload
	}
	if !known || e.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %v, --seconds >= 1, --trace 0 or 1\n", workloads)
		return 2
	}

	e.data = filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid()))
	if err := os.MkdirAll(e.data, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(e.data)
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d workers=%d data=%s (%s)\n",
		e.workload, e.seed, e.seconds, *trace, e.workers, e.data, fsKind(e.data))

	var r *report
	var err error
	if *trace == 1 {
		r = newReport(perLayer)
		err = census(r, e)
	} else {
		r = newReport(endToEnd)
		err = measure(r, e)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := r.render()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// fsKind names the filesystem holding dir, so the output records whether
// stores and journals sat in RAM or on a device.
func fsKind(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "filesystem unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs, RAM-backed"
	case 0xEF53:
		return "ext2/3/4, device-backed"
	case 0x9123683E:
		return "btrfs, device-backed"
	case 0x58465342:
		return "xfs, device-backed"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("filesystem magic %#x", st.Type)
}

// passFunc runs one measured pass and returns a value to keep alive while
// the heap is measured.
type passFunc func() (keep any, err error)

// measure runs the workload untraced: timed set-ups, then passes until
// the measuring time is up, and reports the medians.
func measure(r *report, e env) error {
	var setup func() error
	var setups int
	var pass passFunc
	switch e.workload {
	case "sweep-cold":
		self, err := os.Executable()
		if err != nil {
			return err
		}
		setups = e.probes
		setup = func() error { return exec.Command(self, "--setup-probe").Run() }
		pass = func() (any, error) {
			eng := experiments.NewEngine(e.workers)
			_, err := timedSweep(r, "sweep", eng)
			return eng, err
		}
	case "store-tiers":
		w := &storeTiers{workers: e.workers, data: e.data}
		defer w.close()
		setups = e.storeSetups
		setup = func() error { w.close(); return w.open(r) }
		pass = func() (any, error) { return w.pass(r) }
	case "coord-reads":
		w := e.coordOps(e.passIters)
		defer w.close()
		setups = e.coordSetups
		setup = func() error { w.close(); return w.open(nil) }
		pass = func() (any, error) {
			w.pass(r, false)
			return w, nil
		}
	}

	var setupSecs, setupWall []float64
	for i := 0; i < setups; i++ {
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupSecs = append(setupSecs, (cpuTime() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
	}
	var cpus, walls, allocs, heaps []float64
	deadline := time.Now().Add(time.Duration(e.seconds) * time.Second)
	for len(cpus) == 0 || time.Now().Before(deadline) {
		p, err := measurePass(pass)
		if err != nil {
			return err
		}
		cpus, walls = append(cpus, p.cpu), append(walls, p.wall)
		allocs, heaps = append(allocs, p.allocMB), append(heaps, p.heapMB)
	}
	r.set("setup_s", median(setupSecs))
	r.set("pass_cpu_s", median(cpus))
	r.set("alloc_mb", median(allocs))
	r.set("heap_mb", median(heaps))
	fmt.Printf("perfbench: set-ups %.4g s CPU (wall %.4g s)\n", setupSecs, setupWall)
	fmt.Printf("perfbench: passes %.4g s CPU (wall %.4g s)\n", cpus, walls)
	return nil
}

// cpuTime returns the user plus system CPU time used so far by this
// process and by the child processes it has waited for. Set-ups and
// passes are timed with it because their wall time is set by the host as
// much as by the program: the hypervisor steals the virtual CPUs in
// bursts, and the store and coordinator set-ups wait on fsync (README.md,
// "Why the end-to-end times are CPU time").
func cpuTime() time.Duration {
	var self, kids syscall.Rusage
	// Getrusage fails only for an invalid "who"; these two are valid.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	var total int64
	for _, tv := range []syscall.Timeval{self.Utime, self.Stime, kids.Utime, kids.Stime} {
		total += tv.Nano()
	}
	return time.Duration(total)
}

// passCost is what one pass cost: CPU and wall seconds, MB allocated, and
// the live heap after it (with the pass's result still reachable) in MB.
type passCost struct{ cpu, wall, allocMB, heapMB float64 }

// measurePass runs one pass from a collected heap and measures it.
func measurePass(pass passFunc) (passCost, error) {
	var before, after, live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c0, t0 := cpuTime(), time.Now()
	keep, err := pass()
	c := passCost{cpu: (cpuTime() - c0).Seconds(), wall: time.Since(t0).Seconds()}
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(keep)
	const mb = 1 << 20
	c.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / mb
	c.heapMB = float64(live.HeapAlloc) / mb
	return c, err
}

// census is the traced run: it drives every layer once — the phased
// sweep with the link and matrix probes, the four store phases, and the
// mutating coordinator loop — with timing decorators and middleware in
// place, and CPU-profiles the section belonging to the chosen workload.
func census(r *report, e env) error {
	prof := &sectionProfiler{workload: e.workload, path: filepath.Join(e.data, "cpu.pprof")}
	eng, err := tracedSweep(r, e.workers, prof)
	if err != nil {
		return err
	}
	if err := linkProbe(r); err != nil {
		return err
	}
	if err := matrixProbe(r, eng); err != nil {
		return err
	}
	if err := tracedStoreTiers(r, e.workers, e.data, prof); err != nil {
		return err
	}
	if err := tracedCoordLoop(r, e.coordOps(e.tracedIters), prof); err != nil {
		return err
	}

	if prof.err != nil {
		return fmt.Errorf("cpu profile: %w", prof.err)
	}
	if !prof.done {
		return errors.New("cpu profile: the workload's section was not profiled")
	}
	s, err := summarizeProfile(prof.path)
	if err != nil {
		return err
	}
	r.set("cpu.profile_s", s.cpuSeconds)
	for _, l := range cpuLayers {
		r.set("cpu."+l+"_pct", s.pct[l])
	}
	r.set("link.machine_fn_cum_pct", s.machineFnCum)
	return nil
}
