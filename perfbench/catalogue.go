package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// metricSpec declares one metric the command emits. BENCHMARK.json at the
// repository root carries the same names and units; catalogue_test.go
// keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end metrics only: allowed regression share
}

// endToEnd are the metrics an untraced run (--trace 0) prints, for every
// workload. Each is a median over the run's passes (set-ups for setup_s);
// times are CPU time.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"pass_cpu_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.1},
	{"heap_mb", "MB", "lower", 0.2},
}

// perLayer are the metrics a traced run (--trace 1) prints: the layer
// census, which drives every layer once whatever the workload (see
// README.md, "Traced runs").
var perLayer = []metricSpec{
	// Tracing cost: the traced phased sweep against an untraced one.
	{"trace.untraced_cold_s", "s", "lower", 0},
	{"trace.traced_cold_s", "s", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},

	// Cold compute: the public Engine methods in SweepDigest order.
	{"experiments.table1_s", "s", "lower", 0},
	{"experiments.figures_s", "s", "lower", 0},
	{"experiments.table2_s", "s", "lower", 0},
	{"experiments.motivation_s", "s", "lower", 0},
	{"experiments.table4_s", "s", "lower", 0},
	{"experiments.nanbug_s", "s", "lower", 0},
	{"experiments.table5_s", "s", "lower", 0},
	{"link.build_n", "count", "higher", 0},
	{"link.build_s", "s", "lower", 0},
	{"flit.testrun_n", "count", "higher", 0},
	{"flit.testrun_s", "s", "lower", 0},
	{"flit.matrix_s", "s", "lower", 0},
	{"flit.matrix_self_s", "s", "lower", 0},

	// CPU-profile shares of the workload's traced pass.
	{"cpu.profile_s", "s", "lower", 0},
	{"cpu.link_pct", "%", "lower", 0},
	{"cpu.fp_pct", "%", "lower", 0},
	{"cpu.apps_pct", "%", "lower", 0},
	{"cpu.runtime_map_pct", "%", "lower", 0},
	{"cpu.gc_pct", "%", "lower", 0},
	{"cpu.store_pct", "%", "lower", 0},
	{"cpu.net_pct", "%", "lower", 0},
	{"cpu.coord_pct", "%", "lower", 0},
	{"link.machine_fn_cum_pct", "%", "lower", 0},

	// Cache and bisect, counted on the traced sweep's engine.
	{"flit.run_hits", "count", "higher", 0},
	{"flit.run_misses", "count", "lower", 0},
	{"flit.run_hit_ratio", "ratio", "higher", 0},
	{"flit.builds", "count", "lower", 0},
	{"flit.skipped_builds", "count", "higher", 0},
	{"bisect.searches", "count", "lower", 0},
	{"bisect.execs", "count", "lower", 0},
	{"bisect.spec_execs", "count", "lower", 0},

	// Store and HTTP: the traced store tiers, write paths included.
	{"store.phase.cold_s", "s", "lower", 0},
	{"store.phase.remote_fill_s", "s", "lower", 0},
	{"store.phase.remote_warm_s", "s", "lower", 0},
	{"store.phase.disk_warm_s", "s", "lower", 0},
	{"store.warm_builds", "count", "lower", 0},
	{"store.remote.put_n", "count", "lower", 0},
	{"store.remote.put_s", "s", "lower", 0},
	{"store.remote.get_n", "count", "lower", 0},
	{"store.remote.get_s", "s", "lower", 0},
	{"store.remote.retries", "count", "lower", 0},
	{"store.remote.errors", "count", "lower", 0},
	{"store.disk.put_n", "count", "lower", 0},
	{"store.disk.put_s", "s", "lower", 0},
	{"store.disk.get_n", "count", "lower", 0},
	{"store.disk.get_s", "s", "lower", 0},
	{"store.disk.bytes", "B", "lower", 0},
	{"store.disk.files", "count", "lower", 0},
	{"http.store.requests", "count", "lower", 0},
	{"http.store.server_s", "s", "lower", 0},
	{"http.store.put_server_s", "s", "lower", 0},

	// Coordinator: the traced, mutating scheduling loop.
	{"coord.lease_p50_ms", "ms", "lower", 0},
	{"coord.lease_p99_ms", "ms", "lower", 0},
	{"coord.heartbeat_p50_ms", "ms", "lower", 0},
	{"coord.heartbeat_p99_ms", "ms", "lower", 0},
	{"coord.release_p50_ms", "ms", "lower", 0},
	{"coord.release_p99_ms", "ms", "lower", 0},
	{"coord.campaigns_p50_ms", "ms", "lower", 0},
	{"coord.campaigns_p99_ms", "ms", "lower", 0},
	{"coord.server_busy_s", "s", "lower", 0},
	{"coord.journal_bytes", "B", "lower", 0},
	{"coord.grant_ratio", "ratio", "higher", 0},
	{"coord.client_retries", "count", "lower", 0},
	{"coord.client_ops", "count", "higher", 0},
	{"coord.client_p50_ms", "ms", "lower", 0},
	{"coord.client_p99_ms", "ms", "lower", 0},
	{"coord.ops_per_s", "1/s", "higher", 0},
}

// metric is one emitted value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's verdict and metrics. It accepts only the
// metrics declared for its mode and refuses to render until all of them
// are set, so the printed set always equals the declared one.
type report struct {
	specs map[string]metricSpec

	mu        sync.Mutex // guards the verdict: clients check concurrently
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]metric
}

func newReport(specs []metricSpec) *report {
	r := &report{specs: make(map[string]metricSpec, len(specs)), metrics: make(map[string]metric, len(specs))}
	for _, s := range specs {
		r.specs[s.Name] = s
	}
	return r
}

// set records a metric; an undeclared name is a bug in the benchmark.
func (r *report) set(name string, v float64) {
	s, ok := r.specs[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: metric %q is not declared for this mode", name))
	}
	r.metrics[name] = metric{Value: v, Unit: s.Unit}
}

// check counts one checked operation, failed unless ok. The first few
// failure descriptions are kept for the diagnostic on stderr.
func (r *report) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 8 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

// render returns the result line, or an error naming unset metrics.
func (r *report) render() ([]byte, error) {
	var missing []string
	for name := range r.specs {
		if _, ok := r.metrics[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
}
