package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

// TestStoreFlagCrossProcess: the CLI acceptance pin for the persistent
// store — the same command run twice against one -store DIR (separate
// run() invocations, i.e. separate "processes" sharing nothing but the
// directory) produces byte-identical stdout, and the second run
// materializes zero builds with nonzero store hits, no -warm-start
// manifest anywhere.
func TestStoreFlagCrossProcess(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	var want, stdout, stderr bytes.Buffer
	if code := run([]string{"experiments", "-j", "2", "-store", dir, "-stats", "table4"},
		&want, &stderr); code != 0 {
		t.Fatalf("cold run: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "store: hits=0") ||
		!strings.Contains(stderr.String(), "puts=") {
		t.Errorf("cold run -stats missing the store line:\n%s", stderr.String())
	}

	stderr.Reset()
	if code := run([]string{"experiments", "-j", "2", "-store", dir, "-stats", "table4"},
		&stdout, &stderr); code != 0 {
		t.Fatalf("warm run: exit %d, stderr: %s", code, stderr.String())
	}
	if stdout.String() != want.String() {
		t.Errorf("store-warmed output differs from the cold run:\n--- warm ---\n%s\n--- cold ---\n%s",
			stdout.String(), want.String())
	}
	var buildsLine, storeLine string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "builds:") {
			buildsLine = line
		}
		if strings.HasPrefix(line, "store:") {
			storeLine = line
		}
	}
	if !strings.Contains(buildsLine, "materialized=0") {
		t.Errorf("store-covered run still built executables: %q", buildsLine)
	}
	if storeLine == "" || strings.Contains(storeLine, "hits=0") {
		t.Errorf("store-covered run reported no store hits: %q", storeLine)
	}

	// Without -stats there is no store line at all, and without -store the
	// stats output stays exactly as it was before the store tier existed.
	stderr.Reset()
	if code := run([]string{"experiments", "-j", "2", "-stats", "table3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("storeless run: exit %d", code)
	}
	if strings.Contains(stderr.String(), "store:") {
		t.Errorf("storeless -stats printed a store line:\n%s", stderr.String())
	}
}

// TestStoreFlagRejectsForeignEngine: a directory fenced to another engine
// version must fail up front — before any evaluation — naming the fence.
func TestStoreFlagRejectsForeignEngine(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "store.json")
	if err := os.WriteFile(manifest,
		[]byte(fmt.Sprintf(`{"store_version":%d,"engine":"flit-engine/0"}`, store.FormatVersion)), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"experiments", "-store", dir, "table3"}, &stdout, &stderr); code != 1 {
		t.Fatalf("foreign store: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "flit-engine/0") {
		t.Errorf("diagnostic does not name the foreign engine: %s", stderr.String())
	}
	// The refusal must not have clobbered the foreign manifest.
	raw, err := os.ReadFile(manifest)
	if err != nil || !strings.Contains(string(raw), "flit-engine/0") {
		t.Errorf("foreign manifest was rewritten: %s (%v)", raw, err)
	}
}

// TestStoreFlagRejectsDeltaVerify: -delta-verify exists to recompute
// covered evaluations; a store hit would replay a persisted value and
// report it as a recomputation, so the combination is a usage error.
func TestStoreFlagRejectsDeltaVerify(t *testing.T) {
	dir := t.TempDir()
	art := filepath.Join(dir, "warm.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"experiments", "-shard", "0/1", "-shard-out", art, "table3"},
		&stdout, &stderr); code != 0 {
		t.Fatalf("artifact export: exit %d, stderr: %s", code, stderr.String())
	}
	stderr.Reset()
	code := run([]string{"experiments", "-warm-start", art, "-delta-verify",
		"-store", filepath.Join(dir, "store"), "table3"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("-delta-verify with -store: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "-delta-verify") || !strings.Contains(stderr.String(), "-store") {
		t.Errorf("diagnostic does not name both flags: %s", stderr.String())
	}
	// -delta-out (trust mode) still composes with -store.
	stderr.Reset()
	if code := run([]string{"experiments", "-warm-start", art, "-delta-out",
		filepath.Join(dir, "delta.json"), "-store", filepath.Join(dir, "store"), "table3"},
		&stdout, &stderr); code != 0 {
		t.Fatalf("-delta-out with -store: exit %d, stderr: %s", code, stderr.String())
	}
}

// TestStoreSubcommand: `flit store stats` and `flit store gc` inspect and
// prune a populated store directory; malformed invocations are usage
// errors.
func TestStoreSubcommand(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"experiments", "-store", dir, "table4"}, &stdout, &stderr); code != 0 {
		t.Fatalf("populating run: exit %d, stderr: %s", code, stderr.String())
	}

	stdout.Reset()
	if code := run([]string{"store", "stats", "-store", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("store stats: exit %d, stderr: %s", code, stderr.String())
	}
	statsOut := stdout.String()
	if !strings.Contains(statsOut, "engine=flit-engine/") ||
		!strings.Contains(statsOut, "corrupt=0") || strings.Contains(statsOut, "entries=0 ") {
		t.Errorf("store stats output unexpected: %q", statsOut)
	}

	// Dry-run plans but deletes nothing; the follow-up stats must agree.
	stdout.Reset()
	if code := run([]string{"store", "gc", "-store", dir, "-max-entries", "1", "-dry-run"},
		&stdout, &stderr); code != 0 {
		t.Fatalf("store gc -dry-run: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "would prune") {
		t.Errorf("dry-run gc output unexpected: %q", stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"store", "stats", "-store", dir}, &stdout, &stderr); code != 0 {
		t.Fatal("stats after dry-run failed")
	}
	if stdout.String() != statsOut {
		t.Errorf("dry-run gc changed the store:\nbefore: %q\nafter:  %q", statsOut, stdout.String())
	}

	// Applying prunes down to the bound, and a fresh run recomputes and
	// repopulates without complaint.
	stdout.Reset()
	if code := run([]string{"store", "gc", "-store", dir, "-max-entries", "1"},
		&stdout, &stderr); code != 0 {
		t.Fatalf("store gc: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "kept=1") {
		t.Errorf("gc output unexpected: %q", stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"store", "stats", "-store", dir}, &stdout, &stderr); code != 0 {
		t.Fatal("stats after gc failed")
	}
	if !strings.Contains(stdout.String(), "entries=1 ") {
		t.Errorf("gc did not prune to the bound: %q", stdout.String())
	}
	if code := run([]string{"experiments", "-store", dir, "table4"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run against pruned store: exit %d, stderr: %s", code, stderr.String())
	}

	// Usage errors: missing subcommand, unknown subcommand, missing -store,
	// stray positional arguments.
	for _, args := range [][]string{
		{"store"},
		{"store", "prune"},
		{"store", "stats"},
		{"store", "gc"},
		{"store", "stats", "-store", dir, "stray"},
	} {
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
	}
}
