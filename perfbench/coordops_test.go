package main

import (
	"encoding/json"
	"slices"
	"testing"
)

// TestScheduleIsSeeded: the same seed yields the same coord-reads schedule
// for every client, another seed another one, and clients differ.
func TestScheduleIsSeeded(t *testing.T) {
	a := schedule(7, 0, 1000, 200)
	if !slices.Equal(a, schedule(7, 0, 1000, 200)) {
		t.Fatal("same seed, different schedules")
	}
	if !slices.Equal(a[:50], schedule(7, 0, 1000, 50)) {
		t.Error("a shorter schedule is not a prefix of a longer one")
	}
	if slices.Equal(a, schedule(8, 0, 1000, 200)) {
		t.Error("seeds 7 and 8 gave the same schedule")
	}
	if slices.Equal(a, schedule(7, 1, 1000, 200)) {
		t.Error("clients 0 and 1 got the same schedule")
	}
	for _, k := range a {
		if k < 0 || k >= 1000 {
			t.Fatalf("campaign index %d out of range", k)
		}
	}
}

// TestPassesFollowTheSchedule: consecutive passes walk each client's
// schedule in order, so a run's campaign sequence depends on the seed
// alone.
func TestPassesFollowTheSchedule(t *testing.T) {
	w := &coordOps{clients: 2, campaigns: 5, shards: 2, iters: 3, seed: 3, data: t.TempDir()}
	if err := w.open(nil); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	r := newReport(endToEnd)
	w.pass(r, false)
	w.pass(r, false)
	for ci := range w.cls {
		if !slices.Equal(w.sched[ci][:6], schedule(3, ci, 5, 6)) || w.next[ci] != 6 {
			t.Errorf("client %d walked %v (next %d)", ci, w.sched[ci][:w.next[ci]], w.next[ci])
		}
	}
	if r.failed != 0 || r.attempted != 2*(2*3*2+2) {
		t.Errorf("attempted %d, failed %d: %v", r.attempted, r.failed, r.problems)
	}
}

// TestCoordOpsEmitsEndToEnd runs the coord-reads workload shrunk and
// requires a correct result carrying exactly the end-to-end metrics.
func TestCoordOpsEmitsEndToEnd(t *testing.T) {
	e := env{workload: "coord-reads", seed: 1, seconds: 1, workers: 2, data: t.TempDir(),
		sizes: sizes{probes: 2, storeSetups: 1, coordSetups: 2, campaigns: 20, shards: 4, passIters: 5, tracedIters: 5}}
	r := newReport(endToEnd)
	if err := measure(r, e); err != nil {
		t.Fatal(err)
	}
	line, err := r.render()
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Correct bool
		Failed  int
		Metrics map[string]metric
	}
	if err := json.Unmarshal(line, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("coord-reads not correct: %s %v", line, r.problems)
	}
	for _, s := range endToEnd {
		if m, ok := res.Metrics[s.Name]; !ok || m.Unit != s.Unit || m.Value <= 0 {
			t.Errorf("%s: got %+v", s.Name, m)
		}
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(endToEnd))
	}
}

// TestCensusEmitsPerLayer runs the traced layer census at full size
// (about a minute: two sweeps, the matrix, a store-tiers pass) and
// requires a correct result carrying every per-layer metric.
func TestCensusEmitsPerLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full study several times")
	}
	e := env{workload: "coord-reads", seed: 1, seconds: 1, workers: 2, data: t.TempDir(), sizes: defaultSizes}
	e.campaigns, e.tracedIters = 50, 10
	r := newReport(perLayer)
	if err := census(r, e); err != nil {
		t.Fatal(err)
	}
	if _, err := r.render(); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Errorf("census checks failed: %v", r.problems)
	}
	if v := r.metrics["bisect.execs"].Value; v != goldenBisectExecs {
		t.Errorf("bisect.execs = %v, want %d", v, goldenBisectExecs)
	}
}
