package flit

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/comp"
	"repro/internal/exec"
	"repro/internal/link"
	"repro/internal/store"
)

// TestStoreWarmCacheBuildsNothing: a fresh Cache sharing only the
// persistent store with an earlier one answers every covered evaluation
// without materializing a single plan — the no-manifest warm start the
// store tier exists for — and the results are bit-identical.
func TestStoreWarmCacheBuildsNothing(t *testing.T) {
	s := newSuite()
	st := store.NewMem(0)
	plan := link.FullBuildPlan(s.Prog, s.Baseline)

	cold := NewCache()
	cold.SetStore(st)
	want, err := cold.RunAllPlanned(s.Tests[0], link.NewBuilder(plan))
	if err != nil {
		t.Fatal(err)
	}
	wantCost, err := cold.CostPlanned(link.NewBuilder(plan), "Kernel")
	if err != nil {
		t.Fatal(err)
	}
	if m := cold.StoreMetrics(); !m.Enabled || m.Puts != 2 || m.Hits != 0 {
		t.Fatalf("cold store metrics = %+v, want 2 puts", m)
	}

	// "Fresh process": a new Cache with no memory of the first.
	warm := NewCache()
	warm.SetStore(st)
	wb := link.NewBuilder(plan)
	got, err := warm.RunAllPlanned(s.Tests[0], wb)
	if err != nil {
		t.Fatal(err)
	}
	if wb.Built() {
		t.Fatal("store-covered run materialized the plan")
	}
	if L2Diff(want, got) != 0 {
		t.Fatal("store hit returned different bits")
	}
	cb := link.NewBuilder(plan)
	gotCost, err := warm.CostPlanned(cb, "Kernel")
	if err != nil {
		t.Fatal(err)
	}
	if cb.Built() {
		t.Fatal("store-covered cost materialized the plan")
	}
	if gotCost != wantCost {
		t.Fatalf("store cost %g != computed %g", gotCost, wantCost)
	}
	m := warm.Metrics()
	if m.Builds != 0 {
		t.Fatalf("store-warm cache materialized %d plans, want 0", m.Builds)
	}
	if m.SkippedBuilds == 0 {
		t.Fatal("no skipped builds recorded on a store-warm cache")
	}
	if m.Store.Hits != 2 || m.Store.Misses != 0 {
		t.Fatalf("warm store metrics = %+v, want 2 hits", m.Store)
	}
}

// TestStorePersistsRunErrors: a memoized build/run error round-trips
// through the store like artifact export records it — the fresh cache
// surfaces the same failure without re-linking.
func TestStorePersistsRunErrors(t *testing.T) {
	s := newSuite()
	st := store.NewMem(0)
	bad := link.Plan{Prog: s.Prog, Baseline: s.Baseline,
		FileComp: map[string]comp.Compilation{"nosuch.cpp": comp.PerfReference()}}

	first := NewCache()
	first.SetStore(st)
	_, wantErr := first.RunAllPlanned(s.Tests[0], link.NewBuilder(bad))
	if wantErr == nil {
		t.Fatal("unbuildable plan ran")
	}

	second := NewCache()
	second.SetStore(st)
	b := link.NewBuilder(bad)
	_, gotErr := second.RunAllPlanned(s.Tests[0], b)
	if gotErr == nil {
		t.Fatal("persisted build error lost")
	}
	if b.Built() {
		t.Fatal("persisted build error still re-linked the plan")
	}
	if gotErr.Error() != wantErr.Error() {
		t.Fatalf("replayed error %q != original %q", gotErr, wantErr)
	}
	// Cost errors are NOT persisted (mirroring artifact export): the
	// second cache's CostPlanned must recompute and fail afresh.
	if _, err := second.CostPlanned(link.NewBuilder(bad), "Kernel"); err == nil {
		t.Fatal("CostPlanned succeeded on an unbuildable plan")
	}
}

// TestStoreCorruptEntriesAreMisses: payloads that do not decode, validate,
// or match their key must be recomputed, never replayed.
func TestStoreCorruptEntriesAreMisses(t *testing.T) {
	s := newSuite()
	plan := link.FullBuildPlan(s.Prog, s.Baseline)
	runKey := PlanRunKey(link.NewBuilder(plan), s.Tests[0])

	seed := func(payload []byte) *Cache {
		st := store.NewMem(0)
		if err := st.Put(storeRunPrefix+runKey, payload); err != nil {
			t.Fatal(err)
		}
		c := NewCache()
		c.SetStore(st)
		return c
	}
	wrongKey, err := json.Marshal(RunRecord{Key: "some-other-key", Scalar: 42})
	if err != nil {
		t.Fatal(err)
	}
	inconsistent, err := json.Marshal(RunRecord{Key: runKey, IsVec: false, Vec: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{
		"garbage":          []byte("not json"),
		"truncated":        []byte(`{"key":"` + runKey[:len(runKey)/2]),
		"wrong key":        wrongKey,
		"inconsistent vec": inconsistent,
	} {
		t.Run(name, func(t *testing.T) {
			c := seed(payload)
			b := link.NewBuilder(plan)
			got, err := c.RunAllPlanned(s.Tests[0], b)
			if err != nil {
				t.Fatal(err)
			}
			if !b.Built() {
				t.Fatal("corrupt store entry was replayed instead of recomputed")
			}
			ref, err := NewCache().RunAllPlanned(s.Tests[0], link.NewBuilder(plan))
			if err != nil {
				t.Fatal(err)
			}
			if L2Diff(got, ref) != 0 {
				t.Fatal("recomputed result differs from a storeless run")
			}
			m := c.StoreMetrics()
			if m.Hits != 0 || m.Errors == 0 {
				t.Fatalf("corrupt entry metrics = %+v, want 0 hits and >0 errors", m)
			}
		})
	}
}

// TestStoreKeyNamespaces: a run key and a cost key spelled identically
// must address different store entries.
func TestStoreKeyNamespaces(t *testing.T) {
	if strings.TrimPrefix(storeRunPrefix, "run") == strings.TrimPrefix(storeCostPrefix, "cost") &&
		storeRunPrefix == storeCostPrefix {
		t.Fatal("run and cost store prefixes collide")
	}
	st := store.NewMem(0)
	st.Put(storeRunPrefix+"k", []byte("r"))
	st.Put(storeCostPrefix+"k", []byte("c"))
	if got, _ := st.Get(storeRunPrefix + "k"); string(got) != "r" {
		t.Fatalf("run namespace returned %q", got)
	}
	if got, _ := st.Get(storeCostPrefix + "k"); string(got) != "c" {
		t.Fatalf("cost namespace returned %q", got)
	}
}

// TestStoreWriteFailureDoesNotFailRun: a store whose Puts fail still
// serves correct results — persistence is best-effort, observability is
// not: the failure count must surface in the metrics.
func TestStoreWriteFailureDoesNotFailRun(t *testing.T) {
	s := newSuite()
	c := NewCache()
	c.SetStore(failingStore{})
	got, err := c.RunAllPlanned(s.Tests[0], link.NewBuilder(link.FullBuildPlan(s.Prog, s.Baseline)))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewCache().RunAllPlanned(s.Tests[0], link.NewBuilder(link.FullBuildPlan(s.Prog, s.Baseline)))
	if err != nil {
		t.Fatal(err)
	}
	if L2Diff(got, ref) != 0 {
		t.Fatal("failing store changed the result")
	}
	if m := c.StoreMetrics(); m.Errors == 0 || m.Puts != 0 {
		t.Fatalf("failing store metrics = %+v, want errors > 0 and 0 puts", m)
	}
}

// TestStoreCrossProcessMatrixBuildsNothing is the tentpole acceptance pin:
// a full matrix run against a fresh on-disk store, then "new processes"
// (fresh caches with fresh Disk handles on the same directory, at -j 1 and
// fanned out) that reproduce it byte-identically with zero materialized
// builds and no warm-start manifest. A store claimed by a different engine
// version must be rejected at Open, and a truncated entry must be
// recomputed — and thereby healed — never replayed.
func TestStoreCrossProcessMatrixBuildsNothing(t *testing.T) {
	dir := t.TempDir()
	matrix := comp.Matrix()

	openDisk := func() *store.Disk {
		d, err := store.Open(dir, EngineVersion)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	cold := newSuite()
	cold.Cache = NewCache()
	cold.Cache.SetStore(openDisk())
	coldRes, err := cold.RunMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	want := matrixFingerprint(coldRes)
	if m := cold.Cache.Metrics(); m.Builds == 0 || m.Store.Puts == 0 {
		t.Fatalf("cold run metrics %+v — nothing computed or persisted", m)
	}

	warmRun := func(j int) (CacheMetrics, *store.Disk) {
		warm := newSuite()
		warm.Cache = NewCache()
		d := openDisk()
		warm.Cache.SetStore(d)
		if j > 1 {
			warm.Pool = exec.New(j)
		}
		warmRes, err := warm.RunMatrix(matrix)
		if err != nil {
			t.Fatal(err)
		}
		if got := matrixFingerprint(warmRes); got != want {
			t.Errorf("j=%d: store-warmed matrix differs from cold run", j)
		}
		return warm.Cache.Metrics(), d
	}
	for _, j := range []int{1, 8} {
		m, _ := warmRun(j)
		if m.Builds != 0 {
			t.Errorf("j=%d: store-covered matrix materialized %d executables, want 0", j, m.Builds)
		}
		if m.SkippedBuilds == 0 {
			t.Errorf("j=%d: no skipped builds recorded on a store-warm run", j)
		}
		if m.Store.Hits == 0 || m.Store.Misses != 0 {
			t.Errorf("j=%d: store metrics %+v on a fully covered matrix", j, m.Store)
		}
	}

	// Foreign engine versions are fenced out at Open.
	if _, err := store.Open(dir, "flit-engine/0"); err == nil {
		t.Fatal("store written by this engine opened under a foreign version")
	}

	// Truncate one entry mid-file: the damaged key recomputes (exactly one
	// build), the output is unchanged, and the write-through heals the entry
	// so the next process is back to zero builds.
	victim := ""
	filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, ent fs.DirEntry, err error) error {
		if err == nil && !ent.IsDir() && victim == "" {
			victim = path
		}
		return nil
	})
	if victim == "" {
		t.Fatal("no object files on disk after a cold run")
	}
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	m, d := warmRun(8)
	if d.CorruptReads() == 0 {
		t.Error("truncated entry not counted as a corrupt read")
	}
	if m.Builds == 0 {
		t.Error("truncated entry served a hit instead of recomputing")
	}
	if m, _ := warmRun(8); m.Builds != 0 {
		t.Errorf("truncated entry did not heal: %d builds on the follow-up run", m.Builds)
	}
}

type failingStore struct{}

func (failingStore) Get(string) ([]byte, bool) { return nil, false }
func (failingStore) Put(string, []byte) error  { return errFailingStore }
func (failingStore) String() string            { return "failingStore" }

var errFailingStore = jsonError("store unavailable")

type jsonError string

func (e jsonError) Error() string { return string(e) }
