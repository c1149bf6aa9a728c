package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/flit"
)

// TestQuickstartSmoke runs the whole quickstart workflow — matrix analysis,
// recommendation, bisect — and checks the narrative output is intact, so
// the example cannot silently rot.
func TestQuickstartSmoke(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"fastest bitwise-reproducible:",
		"fastest overall:",
		"variability-inducing compilations:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The dot-product kernel is hot and contractible: some compilation
	// must perturb it, and bisect must blame the kernel file.
	if !strings.Contains(out, "bisecting") || !strings.Contains(out, "kernel.cpp") {
		t.Errorf("bisect did not run or did not blame kernel.cpp:\n%s", out)
	}
}

// TestQuickstartShardMergeEquivalence is the example-level acceptance
// proof: for shard counts N in {1, 2, 3, 4, 8}, running the quickstart as
// N shards through the real CLI path (artifact files on disk included)
// and merging them reproduces the plain run byte for byte.
func TestQuickstartShardMergeEquivalence(t *testing.T) {
	var want strings.Builder
	if err := run(&want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, n := range []int{1, 2, 3, 4, 8} {
		var paths []string
		for i := 0; i < n; i++ {
			// "0/1" included: the degenerate single-shard run exports the
			// full artifact, and merging it alone must still replay exactly.
			shard := exec.Shard{Index: i, Count: n}
			p := filepath.Join(dir, strings.ReplaceAll(shard.String(), "/", "-")+".json")
			if err := cli(opts{shard: shard.String(), shardOut: p}, io.Discard); err != nil {
				t.Fatalf("N=%d shard %d: %v", n, i, err)
			}
			paths = append(paths, p)
		}
		var got strings.Builder
		if err := cli(opts{merge: strings.Join(paths, ",")}, &got); err != nil {
			t.Fatalf("N=%d merge: %v", n, err)
		}
		if got.String() != want.String() {
			t.Errorf("N=%d: merged output differs from plain run:\n--- merged ---\n%s\n--- plain ---\n%s",
				n, got.String(), want.String())
		}
	}
}

// TestQuickstartIncrementalDelta is the example-level incremental-campaign
// proof: warm-starting from an identical-command baseline reports an empty
// delta, and mutating exactly one compiler flag (-unroll moves the plain
// g++ -O3 row) reports exactly one new and one dropped cell — nothing
// else, because every other evaluation is answered from the baseline.
func TestQuickstartIncrementalDelta(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := cli(opts{shard: "0/1", shardOut: base}, io.Discard); err != nil {
		t.Fatal(err)
	}

	var same strings.Builder
	if err := cli(opts{warmStart: base}, &same); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(same.String(), "delta: new=0 dropped=0 changed=0") {
		t.Errorf("identical warm-started run reported a non-empty delta:\n%s", same.String())
	}

	deltaPath := filepath.Join(dir, "delta.json")
	var mutated strings.Builder
	if err := cli(opts{warmStart: base, deltaOut: deltaPath, unroll: true}, &mutated); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mutated.String(), "delta: new=1 dropped=1 changed=0") {
		t.Errorf("flag mutation not scoped to one cell:\n%s", mutated.String())
	}
	raw, err := os.ReadFile(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep flit.DeltaReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("delta report is not valid JSON: %v", err)
	}
	if len(rep.New) != 1 || !strings.Contains(rep.New[0].Key, "-funroll-loops") {
		t.Errorf("new key does not name the mutated compilation: %+v", rep.New)
	}
	if len(rep.Dropped) != 1 || strings.Contains(rep.Dropped[0].Key, "-funroll-loops") {
		t.Errorf("dropped key should be the pre-mutation cell: %+v", rep.Dropped)
	}

	// The mutated run's artifact replays byte-identically through -merge:
	// the recorded command carries the mutation.
	next := filepath.Join(dir, "next.json")
	if err := cli(opts{shard: "0/1", shardOut: next, unroll: true}, io.Discard); err != nil {
		t.Fatal(err)
	}
	var want, got strings.Builder
	if err := cli(opts{unroll: true}, &want); err != nil {
		t.Fatal(err)
	}
	if err := cli(opts{merge: next}, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("merge replay lost the recorded -unroll mutation:\n--- merged ---\n%s\n--- direct ---\n%s",
			got.String(), want.String())
	}
}

// TestQuickstartWarmShardExportsOnlyRequested: a warm-started shard
// exports exactly the records its run asked for. With the -unroll drift,
// one baseline cell is never requested; the export must not carry it, so
// — creation stamp aside — it is byte-identical to the cold export of the
// same command, and the offline delta against the baseline agrees with
// the online one (one new, one dropped).
func TestQuickstartWarmShardExportsOnlyRequested(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := cli(opts{shard: "0/1", shardOut: base}, io.Discard); err != nil {
		t.Fatal(err)
	}
	warm, cold := filepath.Join(dir, "warm.json"), filepath.Join(dir, "cold.json")
	if err := cli(opts{shard: "0/1", shardOut: warm, warmStart: base, unroll: true}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := cli(opts{shard: "0/1", shardOut: cold, unroll: true}, io.Discard); err != nil {
		t.Fatal(err)
	}
	unstamped := func(path string) (*flit.Artifact, string) {
		a, err := flit.ReadArtifactFile(path)
		if err != nil {
			t.Fatal(err)
		}
		a.CreatedUnix = 0
		var b strings.Builder
		if err := a.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return a, b.String()
	}
	baseArt, _ := unstamped(base)
	warmArt, warmJSON := unstamped(warm)
	_, coldJSON := unstamped(cold)
	if warmJSON != coldJSON {
		t.Errorf("warm-started export differs from the cold export: %d vs %d bytes", len(warmJSON), len(coldJSON))
	}
	rep, err := flit.DiffArtifacts([]*flit.Artifact{baseArt}, []*flit.Artifact{warmArt})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.New) != 1 || len(rep.Dropped) != 1 || len(rep.Changed) != 0 {
		t.Errorf("offline delta of the warm export: %s, want new=1 dropped=1 changed=0", rep.Summary())
	}
}
