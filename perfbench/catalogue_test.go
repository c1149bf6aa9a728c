package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestCatalogueMatchesBenchmarkFile pins the metrics the command can emit
// to the ones BENCHMARK.json declares, in both directions, with the same
// units, directions and bounds, and the workloads to the ones it runs.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)

	var declared []metricSpec
	for _, m := range b.EndToEnd {
		declared = append(declared, metricSpec{m.Name, m.Unit, m.Better, m.Bound})
	}
	sameSpecs(t, "end_to_end", declared, endToEnd)
	declared = nil
	for _, m := range b.PerLayer {
		declared = append(declared, metricSpec{m.Name, m.Unit, m.Better, 0})
	}
	sameSpecs(t, "per_layer", declared, perLayer)

	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloads)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("paths = %v, want [perfbench]", b.Paths)
	}
}

func sameSpecs(t *testing.T, what string, declared, code []metricSpec) {
	t.Helper()
	byName := make(map[string]metricSpec)
	for _, s := range code {
		if _, dup := byName[s.Name]; dup {
			t.Errorf("%s: %q declared twice in the catalogue", what, s.Name)
		}
		byName[s.Name] = s
	}
	for _, d := range declared {
		s, ok := byName[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: BENCHMARK.json declares %q, the command never emits it", what, d.Name)
		case s != d:
			t.Errorf("%s: BENCHMARK.json says %+v, the catalogue %+v", what, d, s)
		}
		delete(byName, d.Name)
	}
	for name := range byName {
		t.Errorf("%s: the command emits %q, BENCHMARK.json does not declare it", what, name)
	}
}

// TestReportRefusesPartialAndUndeclared checks the two guards that keep
// the printed metric set equal to the declared one.
func TestReportRefusesPartialAndUndeclared(t *testing.T) {
	r := newReport(endToEnd)
	r.set("setup_s", 1)
	if _, err := r.render(); err == nil {
		t.Error("render succeeded with metrics missing")
	}
	defer func() {
		if recover() == nil {
			t.Error("setting an undeclared metric did not panic")
		}
	}()
	r.set("coord.lease_p99_ms", 1)
}

// TestResultLineShape renders a complete report and checks the keys and
// verdict the contract requires.
func TestResultLineShape(t *testing.T) {
	r := newReport(endToEnd)
	for i, s := range endToEnd {
		r.set(s.Name, float64(i)+0.5)
	}
	r.check(true, "ok")
	line, err := r.render()
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("result keys: %s", line)
	}
	if string(got["correct"]) != "true" {
		t.Errorf("correct = %s with every check passing", got["correct"])
	}
	r.check(false, "broken")
	line, _ = r.render()
	if !strings.Contains(string(line), `"correct":false`) || !strings.Contains(string(line), `"failed":1`) {
		t.Errorf("a failed check did not show: %s", line)
	}
}
