package flit

import (
	"sync/atomic"

	"repro/internal/comp"
	"repro/internal/exec"
	"repro/internal/link"
	"repro/internal/store"
)

// CacheKeyer is implemented by test cases whose run identity is not fully
// captured by Name() — e.g. the MPI variants of the MFEM examples, which
// share a name with their sequential counterpart but traverse the mesh in
// rank-partitioned order. The build/run cache keys on CacheKey() when
// present and Name() otherwise.
type CacheKeyer interface {
	CacheKey() string
}

// TestKey resolves the cache identity of a test case, unwrapping metric
// overrides: WithCompare changes only how results are judged, not what a
// run produces, so digit-restricted views of the same test share cached
// executions.
func TestKey(t TestCase) string {
	for {
		if k, ok := t.(CacheKeyer); ok {
			return k.CacheKey()
		}
		if u, ok := t.(interface{ Unwrap() TestCase }); ok {
			t = u.Unwrap()
			continue
		}
		return t.Name()
	}
}

// RunKey is the canonical identity of one test execution: the executable's
// build-plan key and the test's cache key, NUL-separated. The executable
// key is escape-encoded and NUL-free and the test key is escaped here, so
// no two distinct (program, build plan, test) tuples share a RunKey — the
// injectivity the build/run cache and the shard-artifact merge depend on,
// enforced by FuzzRunKeyInjective.
func RunKey(ex *link.Executable, t TestCase) string {
	return ex.Key() + "\x00" + comp.KeyEscape(TestKey(t))
}

// PlanRunKey is RunKey computed from an unbuilt plan: link.Plan.Key
// produces the exact string Executable.Key would after linking (pinned by
// FuzzPlanKeyMatchesExecutableKey), so the key-first lookups address the
// same cache entries — and the same artifact records — a built
// executable's RunKey names.
func PlanRunKey(b *link.Builder, t TestCase) string {
	return b.Key() + "\x00" + comp.KeyEscape(TestKey(t))
}

// planCostKey addresses the memoized cost model per (plan, root symbol).
func planCostKey(b *link.Builder, root string) string {
	return b.Key() + "\x00" + comp.KeyEscape(root)
}

type runVal struct {
	res Result
	err error
}

// importSet is the read-only tier of records imported from artifacts
// (Import). It is filled before the cache serves lookups and never
// changes afterwards, so lookups read it without locking; the first
// import of a key wins. served marks the records some lookup was
// answered with — what an export carries forward and what the delta
// detector counts as baseline hits.
type importSet[V any] map[string]*imported[V]

type imported[V any] struct {
	val    V
	served atomic.Bool
}

// add records v under key unless an earlier import already holds it.
func (s importSet[V]) add(key string, v V) {
	if _, ok := s[key]; !ok {
		s[key] = &imported[V]{val: v}
	}
}

// get answers a lookup from the set, marking the record served.
func (s importSet[V]) get(key string) (V, bool) {
	e, ok := s[key]
	if !ok {
		var zero V
		return zero, false
	}
	if !e.served.Load() {
		e.served.Store(true)
	}
	return e.val, true
}

// eachServed calls fn for every record a lookup was answered with, in
// unspecified order (callers sort).
func (s importSet[V]) eachServed(fn func(key string, v V)) {
	for key, e := range s {
		if e.served.Load() {
			fn(key, e.val)
		}
	}
}

// Cache memoizes test runs keyed by (program, build plan, test): the
// concurrency-safe equivalent of FLiT's memoized bisect evaluations, where
// the same linkage combination is never re-executed. (The simulated link
// step is cheap map construction and is not memoized.) Cached Results are
// shared — callers must treat them as read-only, which every comparison in
// the reproduction does. A nil *Cache is valid and simply runs everything.
//
// A capped cache (NewCacheCap) evicts least-recently-used run entries; the
// toolchain is deterministic, so eviction trades recomputation for memory
// and can never change a result.
//
// Records imported from artifacts do not enter the memo: they form a
// read-only tier consulted before it, never evicted, whose hits count as
// neither memo hits nor memo misses.
type Cache struct {
	runs  *exec.Cache[runVal]
	costs *exec.Cache[float64]

	importedRuns  importSet[runVal]
	importedCosts importSet[float64]

	// store, when non-nil, is the persistent second tier (SetStore):
	// consulted key-first on every in-memory miss before any build work,
	// written through after every computation, fenced to this engine
	// version. storeC counts its traffic; see persist.go.
	store  store.Store
	storeC storeCounters

	// Key-first build accounting: builds counts plans the key-first API
	// actually materialized (at most once per Builder, however many lookups
	// shared it); skippedBuilds counts builders that served at least one
	// cache hit while still unmaterialized — the executables a warm or
	// warm-started run never constructed. Fully covered runs show
	// builds == 0; the CLI surfaces both under -stats.
	builds        atomic.Int64
	skippedBuilds atomic.Int64
}

// NewCache returns an empty, unbounded build/run cache.
func NewCache() *Cache { return NewCacheCap(0) }

// NewCacheCap returns a build/run cache whose run store is capped at
// capacity entries with LRU eviction (<= 0 means unbounded). Run results
// carry whole mesh vectors and dominate the cache's memory; the cost store
// holds one float64 per key and stays unbounded.
func NewCacheCap(capacity int) *Cache {
	return &Cache{runs: exec.NewCacheCap[runVal](capacity), costs: exec.NewCache[float64](),
		importedRuns: importSet[runVal]{}, importedCosts: importSet[float64]{}}
}

// RunAllPlanned is the memoizing, key-first form of the package-level
// RunAll: the first evaluation of a (plan, test) pair executes, every
// repeat — across bisect steps, searches, and experiment drivers — is a
// hit with a bit-identical Result. The lookup is by plan identity
// (PlanRunKey — the string a built Executable's RunKey would be): the
// imported records first, then the memo, then the persistent store, and
// the plan is materialized through the builder only when all three miss.
// A hit therefore runs no link step, no ABI-hazard scan, and no test —
// the fast path every covered cell of a warm-started campaign takes, and
// a second process sharing a store builds nothing for covered cells.
// Errors, whether from the build or the run, are memoized too: a
// deterministic toolchain fails the same way every time.
func (c *Cache) RunAllPlanned(t TestCase, b *link.Builder) (Result, error) {
	if c == nil {
		ex, err := b.Build()
		if err != nil {
			return Result{}, err
		}
		return RunAll(t, ex)
	}
	v, computed := c.lookupRun(PlanRunKey(b, t), func() runVal {
		ex, err := b.Build()
		if err != nil {
			return runVal{err: err}
		}
		r, err := RunAll(t, ex)
		return runVal{res: r, err: err}
	})
	c.noteBuilder(b, !computed)
	return v.res, v.err
}

// lookupRun answers one run key through the tiers: the imported records,
// then the memo, whose single-flight miss consults the persistent store
// and runs compute only when that misses too, writing the result through.
// computed reports whether compute ran for this call.
func (c *Cache) lookupRun(key string, compute func() runVal) (v runVal, computed bool) {
	if v, ok := c.importedRuns.get(key); ok {
		return v, false
	}
	v, _ = c.runs.Do(key, func() (runVal, error) {
		if v, ok := c.storeGetRun(key); ok {
			return v, nil
		}
		computed = true
		v := compute()
		c.storePutRun(key, v)
		return v, nil
	})
	return v, computed
}

// CostPlanned memoizes the deterministic cost model per (plan, root) — the
// matrix runner charges every cell's runtime through it. Lookups go
// key-first through the same tiers as RunAllPlanned, materializing (and
// surfacing a build error) only on a miss.
func (c *Cache) CostPlanned(b *link.Builder, root string) (float64, error) {
	if c == nil {
		ex, err := b.Build()
		if err != nil {
			return 0, err
		}
		return ex.Cost(root), nil
	}
	key := planCostKey(b, root)
	if f, ok := c.importedCosts.get(key); ok {
		c.noteBuilder(b, true)
		return f, nil
	}
	computed := false
	v, err := c.costs.Do(key, func() (float64, error) {
		if f, ok := c.storeGetCost(key); ok {
			return f, nil
		}
		computed = true
		ex, err := b.Build()
		if err != nil {
			return 0, err
		}
		f := ex.Cost(root)
		c.storePutCost(key, f)
		return f, nil
	})
	c.noteBuilder(b, !computed)
	return v, err
}

// noteBuilder folds one key-first lookup into the build counters, charging
// each builder at most once per side.
func (c *Cache) noteBuilder(b *link.Builder, hit bool) {
	if b.Built() {
		if b.MarkBuildCounted() {
			c.builds.Add(1)
		}
		return
	}
	if hit && b.MarkSkipCounted() {
		c.skippedBuilds.Add(1)
	}
}

// eachRun snapshots every run record the cache holds — the memo's
// completed entries and the imported records a lookup was served with —
// in unspecified order (callers sort). imported tells the two apart.
func (c *Cache) eachRun(fn func(rec RunRecord, imported bool)) {
	if c == nil {
		return
	}
	c.runs.Each(func(key string, v runVal, _ error) { fn(recordOf(key, v), false) })
	c.importedRuns.eachServed(func(key string, v runVal) { fn(recordOf(key, v), true) })
}

// Stats reports (hits, misses) of the run cache.
func (c *Cache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.runs.Stats()
}

// CacheMetrics snapshots both stores of a build/run cache, plus the
// key-first build accounting: Builds counts plans actually materialized
// through RunAllPlanned/CostPlanned, SkippedBuilds the builders whose every
// consulted entry was already cached — executables a warm run never
// constructed.
type CacheMetrics struct {
	Runs          exec.Metrics
	Costs         exec.Metrics
	Builds        int64
	SkippedBuilds int64
	// Store is the persistent tier's traffic; zero (Enabled false) when no
	// store is attached.
	Store StoreMetrics
}

// Metrics snapshots hit/miss/eviction counters and occupancy of both
// stores — the observability surface behind the CLI's -stats flag.
func (c *Cache) Metrics() CacheMetrics {
	if c == nil {
		return CacheMetrics{}
	}
	return CacheMetrics{
		Runs:          c.runs.Metrics(),
		Costs:         c.costs.Metrics(),
		Builds:        c.builds.Load(),
		SkippedBuilds: c.skippedBuilds.Load(),
		Store:         c.StoreMetrics(),
	}
}
