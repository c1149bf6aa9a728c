package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheLRUCountersExact walks a deterministic access sequence through a
// capacity-2 cache and checks every counter at every step — the
// single-threaded exactness contract of the eviction metrics.
func TestCacheLRUCountersExact(t *testing.T) {
	c := NewCacheCap[int](2)
	var computes atomic.Int64
	do := func(key string) {
		t.Helper()
		v, err := c.Do(key, func() (int, error) {
			computes.Add(1)
			return len(key), nil
		})
		if err != nil || v != len(key) {
			t.Fatalf("Do(%q) = %d, %v", key, v, err)
		}
	}
	check := func(step string, hits, misses, evictions int64, entries int) {
		t.Helper()
		m := c.Metrics()
		if m.Hits != hits || m.Misses != misses || m.Evictions != evictions || m.Entries != entries {
			t.Fatalf("%s: metrics = %+v, want hits=%d misses=%d evictions=%d entries=%d",
				step, m, hits, misses, evictions, entries)
		}
	}

	do("a")
	check("after a", 0, 1, 0, 1)
	do("bb")
	check("after bb", 0, 2, 0, 2)
	do("a") // hit; a becomes MRU, recency now [a, bb]
	check("after a hit", 1, 2, 0, 2)
	do("ccc") // evicts bb (LRU), recency [ccc, a]
	check("after ccc", 1, 3, 1, 2)
	do("bb") // recomputed: it was evicted; evicts a
	check("after bb again", 1, 4, 2, 2)
	do("ccc") // still resident
	check("after ccc hit", 2, 4, 2, 2)
	if got := computes.Load(); got != 4 {
		t.Errorf("compute count = %d, want 4", got)
	}
	if c.Capacity() != 2 {
		t.Errorf("Capacity = %d", c.Capacity())
	}
}

// TestCacheLRUCapacityUnderConcurrency hammers a capped cache from many
// goroutines; once all computations complete the entry count must respect
// the cap (in-flight entries may transiently exceed it, but completion
// re-enforces the bound).
func TestCacheLRUCapacityUnderConcurrency(t *testing.T) {
	const cap, workers, keys, rounds = 8, 16, 64, 50
	c := NewCacheCap[int](cap)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := fmt.Sprintf("k%d", (w*31+r*7)%keys)
				if _, err := c.Do(k, func() (int, error) { return 1, nil }); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Len(); got > cap {
		t.Errorf("Len = %d after quiescence, cap %d", got, cap)
	}
	m := c.Metrics()
	if m.Hits+m.Misses != workers*rounds {
		t.Errorf("hits+misses = %d, want %d", m.Hits+m.Misses, workers*rounds)
	}
	if m.Evictions == 0 {
		t.Error("no evictions despite working set exceeding cap")
	}
}

// TestCacheSingleFlightAfterEviction: once a key is evicted, a re-request
// recomputes it exactly once even under concurrent callers — eviction must
// not degrade the single-flight guarantee.
func TestCacheSingleFlightAfterEviction(t *testing.T) {
	c := NewCacheCap[string](1)
	var computes atomic.Int64
	compute := func(key string) func() (string, error) {
		return func() (string, error) {
			computes.Add(1)
			time.Sleep(10 * time.Millisecond) // widen the coalescing window
			return key, nil
		}
	}
	if _, err := c.Do("a", compute("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("b", compute("b")); err != nil { // evicts a
		t.Fatal(err)
	}
	if got := c.Metrics().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	const callers = 10
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do("a", compute("a"))
			if err != nil || v != "a" {
				t.Errorf("Do(a) = %q, %v", v, err)
			}
		}()
	}
	wg.Wait()
	// 1 for a, 1 for b, exactly 1 recomputation of a across all callers.
	if got := computes.Load(); got != 3 {
		t.Errorf("compute count = %d, want 3 (single flight broken after eviction)", got)
	}
}

// TestCacheEach: Each snapshots exactly the completed entries — an
// in-flight computation is skipped, not waited on — and sees only what
// the cap left resident.
func TestCacheEach(t *testing.T) {
	c := NewCacheCap[int](2)
	for i, k := range []string{"a", "b", "c"} { // c evicts the LRU entry
		c.Do(k, func() (int, error) { return 10 * (i + 1), nil })
	}
	if got := c.Len(); got != 2 {
		t.Errorf("Len = %d after computing past cap", got)
	}
	seen := map[string]int{}
	c.Each(func(key string, val int, err error) { seen[key] = val })
	if len(seen) != 2 || seen["b"] != 20 || seen["c"] != 30 {
		t.Errorf("Each saw %v, want b=20 c=30", seen)
	}
	// An entry still computing is invisible to Each.
	u := NewCache[int]()
	for i := 0; i < 5; i++ {
		u.Do(fmt.Sprintf("k%d", i), func() (int, error) { return i, nil })
	}
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		u.Do("inflight", func() (int, error) { close(started); <-release; return -1, nil })
	}()
	<-started
	n := 0
	u.Each(func(key string, _ int, _ error) {
		if key == "inflight" {
			t.Error("Each reported an in-flight entry")
		}
		n++
	})
	close(release)
	<-done
	if n != 5 {
		t.Errorf("unbounded Each saw %d, want 5", n)
	}
	// Nil-cache safety.
	var nc *Cache[int]
	nc.Each(func(string, int, error) { t.Error("nil cache has entries") })
	if m := nc.Metrics(); m != (Metrics{}) {
		t.Errorf("nil cache metrics = %+v", m)
	}
}

// TestCacheDoPanicUnblocksWaiters: a panicking compute function must not
// wedge the cache — concurrent waiters unblock, the entry is dropped, and
// the key recomputes cleanly afterwards.
func TestCacheDoPanicUnblocksWaiters(t *testing.T) {
	c := NewCacheCap[int](4)
	started := make(chan struct{})
	release := make(chan struct{})
	waited := make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.Do("k", func() (int, error) {
			close(started)
			<-release
			panic("compute failed")
		})
	}()
	<-started
	go func() {
		// This waiter blocks on the in-flight entry; it must return once
		// the computation panics.
		c.Do("k", func() (int, error) { return 0, nil })
		close(waited)
	}()
	time.Sleep(5 * time.Millisecond) // let the waiter reach <-done
	close(release)
	select {
	case <-waited:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter deadlocked after compute panic")
	}
	if got := c.Len(); got != 0 {
		t.Errorf("Len = %d after panic, want 0 (entry dropped)", got)
	}
	v, err := c.Do("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Errorf("recompute after panic = %d, %v", v, err)
	}
}
