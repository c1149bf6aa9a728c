package flit

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/link"
)

// exportImport pushes a cache's contents through JSON bytes into a fresh
// cache, the full remote round trip.
func exportImport(t *testing.T, c *Cache) *Cache {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Export(exec.Shard{}, []string{"test"}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	art, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewCache()
	if err := fresh.Import(art); err != nil {
		t.Fatal(err)
	}
	return fresh
}

// importedRun answers a lookup of key from c's imported records, failing
// the test if the key was not imported.
func importedRun(t *testing.T, c *Cache, key string) runVal {
	t.Helper()
	v, ok := c.importedRuns.get(key)
	if !ok {
		t.Fatalf("key %q not imported", key)
	}
	return v
}

// TestArtifactRoundTripValues: scalars, vectors (including empty), NaN and
// ±Inf all survive the JSON round trip bit-exactly — decimal JSON floats
// would reject NaN outright and the Laghos NaN study depends on them.
func TestArtifactRoundTripValues(t *testing.T) {
	c := NewCache()
	vals := map[string]Result{
		"scalar":   ScalarResult(0.1 + 0.2),
		"zero":     ScalarResult(0),
		"nan":      ScalarResult(math.NaN()),
		"inf":      ScalarResult(math.Inf(1)),
		"vec":      VecResult([]float64{1.5, math.NaN(), math.Inf(-1), -0.0}),
		"emptyvec": VecResult([]float64{}),
	}
	for k, v := range vals {
		v := v
		c.runs.Do(k, func() (runVal, error) { return runVal{res: v}, nil })
	}
	fresh := exportImport(t, c)
	for k, want := range vals {
		got := importedRun(t, fresh, k)
		if got.res.IsVec() != want.IsVec() {
			t.Errorf("%s: IsVec %v != %v", k, got.res.IsVec(), want.IsVec())
			continue
		}
		if !want.IsVec() {
			if math.Float64bits(got.res.Scalar) != math.Float64bits(want.Scalar) {
				t.Errorf("%s: scalar bits differ: %x != %x", k,
					math.Float64bits(got.res.Scalar), math.Float64bits(want.Scalar))
			}
			continue
		}
		if len(got.res.Vec) != len(want.Vec) {
			t.Errorf("%s: len %d != %d", k, len(got.res.Vec), len(want.Vec))
			continue
		}
		for i := range want.Vec {
			if math.Float64bits(got.res.Vec[i]) != math.Float64bits(want.Vec[i]) {
				t.Errorf("%s[%d]: bits differ", k, i)
			}
		}
	}
}

// TestArtifactRoundTripErrors: memoized run errors keep their text and —
// for the one identity the drivers branch on — their errors.Is behavior
// after replay. A bisect replay that lost the segfault identity would
// misclassify every crashed symbol search.
func TestArtifactRoundTripErrors(t *testing.T) {
	c := NewCache()
	c.runs.Do("segv", func() (runVal, error) { return runVal{err: link.ErrSegfault}, nil })
	wrapped := errors.Join(errors.New("flit: test X:"), link.ErrSegfault)
	c.runs.Do("wrapped-segv", func() (runVal, error) { return runVal{err: wrapped}, nil })
	c.runs.Do("other", func() (runVal, error) { return runVal{err: errors.New("input exhausted")}, nil })
	c.runs.Do("ok", func() (runVal, error) { return runVal{res: ScalarResult(1)}, nil })

	fresh := exportImport(t, c)
	get := func(k string) error {
		return importedRun(t, fresh, k).err
	}
	if err := get("segv"); !errors.Is(err, link.ErrSegfault) || err.Error() != link.ErrSegfault.Error() {
		t.Errorf("segv replayed as %v", err)
	}
	if err := get("wrapped-segv"); !errors.Is(err, link.ErrSegfault) || err.Error() != wrapped.Error() {
		t.Errorf("wrapped segv replayed as %v", err)
	}
	if err := get("other"); errors.Is(err, link.ErrSegfault) || err == nil || err.Error() != "input exhausted" {
		t.Errorf("plain error replayed as %v", err)
	}
	if err := get("ok"); err != nil {
		t.Errorf("clean result replayed with error %v", err)
	}
}

// TestImportNeverOverwrites: overlapping keys across shards (every shard
// computes the shared baselines redundantly) keep the first-imported
// value — safe because a deterministic engine makes all copies identical.
// Import adds to the imported records, never to the memo, and refuses once
// the memo has computed anything: an import must not shadow a result.
func TestImportNeverOverwrites(t *testing.T) {
	artOf := func(x float64) *Artifact {
		src := NewCache()
		src.runs.Do("k", func() (runVal, error) { return runVal{res: ScalarResult(x)}, nil })
		src.costs.Do("k", func() (float64, error) { return x, nil })
		return src.Export(exec.Shard{}, nil)
	}
	dst := NewCache()
	for _, x := range []float64{42, 99} {
		if err := dst.Import(artOf(x)); err != nil {
			t.Fatal(err)
		}
	}
	if v := importedRun(t, dst, "k"); v.res.Scalar != 42 {
		t.Errorf("first import overwritten: %v", v.res.Scalar)
	}
	if f, ok := dst.importedCosts.get("k"); !ok || f != 42 {
		t.Errorf("first cost import overwritten: %v, %v", f, ok)
	}
	if len(dst.importedRuns) != 1 || dst.runs.Len() != 0 {
		t.Errorf("overlapping import: %d imported, %d memo entries", len(dst.importedRuns), dst.runs.Len())
	}
	computed := NewCache()
	computed.runs.Do("k", func() (runVal, error) { return runVal{res: ScalarResult(42)}, nil })
	if err := computed.Import(artOf(42)); err == nil {
		t.Error("Import accepted after the memo computed a result")
	}
}

// TestImportedLookupsConcurrent: lookups from many goroutines read the
// imported records without locking and mark what they were served; the
// export then carries exactly the served records, and imported answers
// count as neither memo hits nor memo misses.
func TestImportedLookupsConcurrent(t *testing.T) {
	src := NewCache()
	for i := 0; i < 64; i++ {
		src.runs.Do(fmt.Sprint("k", i), func() (runVal, error) { return runVal{res: ScalarResult(float64(i))}, nil })
	}
	c := NewCache()
	if err := c.Import(src.Export(exec.Shard{}, nil)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i += 2 {
				v, computed := c.lookupRun(fmt.Sprint("k", i), func() runVal { return runVal{} })
				if computed || v.res.Scalar != float64(i) {
					t.Errorf("k%d: computed=%v value=%v", i, computed, v.res.Scalar)
				}
			}
		}()
	}
	wg.Wait()
	art := c.Export(exec.Shard{}, nil)
	if len(art.Runs) != 32 {
		t.Fatalf("export holds %d records, want the 32 served ones", len(art.Runs))
	}
	for _, r := range art.Runs {
		var i int
		if _, err := fmt.Sscanf(r.Key, "k%d", &i); err != nil || i%2 != 0 {
			t.Errorf("exported a record no lookup asked for: %q", r.Key)
		}
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Errorf("imported answers counted in the memo: hits=%d misses=%d", hits, misses)
	}
}

// TestArtifactExportDeterministic: the same cache contents always
// serialize to the same bytes (sorted records), so shard artifacts can be
// compared and content-addressed.
func TestArtifactExportDeterministic(t *testing.T) {
	build := func() *bytes.Buffer {
		c := NewCache()
		for _, k := range []string{"z", "a", "m"} {
			c.runs.Do(k, func() (runVal, error) { return runVal{res: ScalarResult(float64(len(k)))}, nil })
			c.costs.Do(k, func() (float64, error) { return 1.5, nil })
		}
		var buf bytes.Buffer
		if err := c.Export(exec.Shard{Index: 0, Count: 2}, []string{"run"}).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	if !bytes.Equal(build().Bytes(), build().Bytes()) {
		t.Error("identical cache contents serialized to different bytes")
	}
}
