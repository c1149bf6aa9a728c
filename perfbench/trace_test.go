package main

import (
	"bytes"
	"maps"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/apps/mfem"
	"repro/internal/comp"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/store"
)

// recordingStore is an in-memory store.Store that keeps every entry, so
// two runs' store contents can be compared.
type recordingStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newRecordingStore() *recordingStore { return &recordingStore{m: make(map[string][]byte)} }

func (s *recordingStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.m[key]
	return d, ok
}

func (s *recordingStore) Put(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), data...)
	return nil
}

// TestTimedStoreIsTransparent runs the Laghos study (Table 4) on two
// engines, one writing through a timedStore, and requires the same
// rendered table, the same store contents and cache counters, and a
// timer that saw every write.
func TestTimedStoreIsTransparent(t *testing.T) {
	run := func(s store.Store) (string, flit.CacheMetrics) {
		eng := experiments.NewEngine(2)
		eng.AttachStore(s)
		rows, err := eng.Table4()
		if err != nil {
			t.Fatal(err)
		}
		return experiments.RenderTable4(rows), eng.CacheMetrics()
	}
	plain, timedInner := newRecordingStore(), newRecordingStore()
	timed := &timedStore{inner: timedInner}
	wantOut, wantM := run(plain)
	gotOut, gotM := run(timed)
	if gotOut != wantOut {
		t.Errorf("Table 4 differs through the decorator:\n%s\nwant\n%s", gotOut, wantOut)
	}
	if !maps.EqualFunc(plain.m, timedInner.m, bytes.Equal) {
		t.Errorf("store contents differ: %d entries through the decorator, %d without", len(timedInner.m), len(plain.m))
	}
	if gotM.Store.Puts != wantM.Store.Puts || gotM.Runs.Misses != wantM.Runs.Misses {
		t.Errorf("cache metrics differ: %+v, want %+v", gotM, wantM)
	}
	if int(timed.put.count()) != len(timedInner.m) || timed.get.count() == 0 {
		t.Errorf("decorator counted %v puts and %v gets over %d entries", timed.put.count(), timed.get.count(), len(timedInner.m))
	}
}

// TestTimedCaseKeepsKeys checks that wrapping a case changes neither its
// test key nor any run key, so the wrapped matrix shares cache and store
// entries with the engine's.
func TestTimedCaseKeepsKeys(t *testing.T) {
	var tm timer
	cases := mfem.AllCases()
	wrapped := timeCases(cases, &tm)
	ex, err := link.FullBuild(mfem.Program(), comp.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	for i := range cases {
		if flit.TestKey(wrapped[i]) != flit.TestKey(cases[i]) {
			t.Errorf("%s: test key %q, want %q", cases[i].Name(), flit.TestKey(wrapped[i]), flit.TestKey(cases[i]))
		}
		if flit.RunKey(ex, wrapped[i]) != flit.RunKey(ex, cases[i]) {
			t.Errorf("%s: run key changed by the wrapper", cases[i].Name())
		}
	}
}

// TestTimedCaseMatrixIsTransparent runs a slice of the MFEM matrix with
// and without the wrapper and requires identical cells, and a timer that
// saw one Run per data-driven chunk.
func TestTimedCaseMatrixIsTransparent(t *testing.T) {
	matrix := comp.Matrix()[:12]
	var tm timer
	suite := func(cases []flit.TestCase) *flit.Suite {
		return &flit.Suite{Prog: mfem.Program(), Tests: cases, Baseline: comp.Baseline(),
			Reference: comp.PerfReference(), Pool: exec.New(2), Cache: flit.NewCache()}
	}
	want, err := suite(mfem.AllCases()).RunMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	got, err := suite(timeCases(mfem.AllCases(), &tm)).RunMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range want.TestNames() {
		g, w := got.ForTest(name), want.ForTest(name)
		if len(g) != len(w) {
			t.Fatalf("%s: %d cells, want %d", name, len(g), len(w))
		}
		for i := range g {
			if g[i].CompareVal != w[i].CompareVal || g[i].Time != w[i].Time {
				t.Errorf("%s %s: cell differs through the wrapper", name, g[i].Comp)
			}
		}
	}
	if tm.count() == 0 || tm.seconds() <= 0 {
		t.Errorf("wrapper timed %v runs in %vs", tm.count(), tm.seconds())
	}
}

// TestTimeHandlerIsTransparent serves a Disk through the middleware and
// requires a Remote to read back what it wrote, with each request
// recorded under its method.
func TestTimeHandlerIsTransparent(t *testing.T) {
	d, err := store.Open(t.TempDir(), flit.EngineVersion)
	if err != nil {
		t.Fatal(err)
	}
	rec := newOpLatencies()
	srv := httptest.NewServer(timeHandler(store.Handler(d), storeOp, rec))
	defer srv.Close()
	rm, err := store.NewRemote(srv.URL, flit.EngineVersion, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Put("k", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	got, ok := rm.Get("k")
	if !ok || string(got) != `{"v":1}` {
		t.Fatalf("Get through the middleware = %q, %v", got, ok)
	}
	if _, ok := rm.Get("absent"); ok {
		t.Fatal("a missing key read as a hit")
	}
	if n, _ := rec.total(); n != 3 || len(rec.samples(http.MethodPut)) != 1 || len(rec.samples(http.MethodGet)) != 2 {
		t.Errorf("middleware recorded %d requests: %d PUT, %d GET", n, len(rec.samples(http.MethodPut)), len(rec.samples(http.MethodGet)))
	}
}

func TestCoordOpNames(t *testing.T) {
	for path, want := range map[string]string{
		"/v1/coord/campaigns":       "campaigns",
		"/v1/coord/c0123/lease":     "lease",
		"/v1/coord/c0123/heartbeat": "heartbeat",
		"/v1/coord/c0123/release/":  "release",
	} {
		if got := coordOp(httptest.NewRequest(http.MethodPost, path, nil)); got != want {
			t.Errorf("coordOp(%s) = %q, want %q", path, got, want)
		}
	}
}

func TestParseTop(t *testing.T) {
	text := []byte(`File: perfbench
Type: cpu
Duration: 4.51s, Total samples = 8s (177.38%)
Showing nodes accounting for 8s, 100% of 8s total
      flat  flat%   sum%        cum   cum%
     2s 25.00% 25.00%      4s 50.00%  repro/internal/link.(*Machine).Fn
     1s 12.50% 37.50%      1s 12.50%  runtime.mapaccess2_faststr
     1s 12.50% 50.00%      1s 12.50%  repro/internal/fp.(*Env).Mul
     1s 12.50% 62.50%      1s 12.50%  repro/internal/apps/mfem.Shape1D
     1s 12.50% 75.00%      1s 12.50%  runtime.scanobject
     1s 12.50% 87.50%      1s 12.50%  net/http.(*conn).serve
     1s 12.50%   100%      1s 12.50%  repro/internal/store.(*Disk).Put
`)
	s, err := parseTop(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"link": 25, "fp": 12.5, "apps": 12.5, "runtime_map": 12.5, "gc": 12.5,
		"store": 12.5, "net": 12.5}
	if s.cpuSeconds != 8 || s.machineFnCum != 50 || !maps.Equal(s.pct, want) {
		t.Errorf("parseTop = %+v, want 8 s, 50%% cumulative in Machine.Fn and %v", s, want)
	}
	if _, err := parseTop([]byte("no rows here\n")); err == nil {
		t.Error("parseTop accepted output without rows")
	}
}
