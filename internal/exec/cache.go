package exec

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrComputePanicked is the sentinel error waiters of a cache entry
// observe when the computation they were blocked on panicked instead of
// returning. The panicking caller sees the panic itself (Do does not
// recover); everyone else sharing the entry gets this error rather than a
// silently-memoized zero value, and the key recomputes on next use.
var ErrComputePanicked = errors.New("exec: cache computation panicked")

// Cache is a concurrency-safe memoizing map with single-flight semantics:
// for each key the compute function runs exactly once, concurrent callers
// of the same key block until the first computation finishes, and every
// caller observes the same value. Values must be treated as immutable by
// all callers — they are shared, not copied.
//
// A cache may be size-capped (NewCacheCap), in which case completed entries
// are evicted least-recently-used when the entry count exceeds the cap.
// Eviction never breaks waiters — an evicted entry's value still reaches
// every caller already blocked on it — and an evicted key simply recomputes
// on next use, with fresh single-flight semantics. Because everything the
// reproduction memoizes is a pure function of its key, eviction trades
// recomputation for memory and cannot change any result.
//
// The reproduction uses it to memoize test runs keyed by build plan: the
// simulated toolchain is deterministic, so a cache hit is bit-identical to
// a re-run, and repeated evaluations during bisect hit the cache instead
// of re-executing the program (the link step itself is cheap and redone).
// Errors are memoized too (a deterministic toolchain fails the same way
// every time).
type Cache[V any] struct {
	mu sync.Mutex
	m  map[string]*cacheEntry[V]
	// cap is the maximum entry count; 0 means unbounded. In-flight entries
	// are never evicted, so the count may transiently exceed cap while more
	// than cap computations overlap; it is re-enforced as each completes.
	cap        int
	head, tail *cacheEntry[V] // recency list, head = most recently used
	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
}

type cacheEntry[V any] struct {
	key        string
	done       chan struct{}
	val        V
	err        error
	completed  bool // guarded by Cache.mu
	prev, next *cacheEntry[V]
}

// NewCache returns an empty, unbounded cache.
func NewCache[V any]() *Cache[V] { return NewCacheCap[V](0) }

// NewCacheCap returns an empty cache evicting least-recently-used completed
// entries once it holds more than capacity keys. capacity <= 0 is unbounded.
func NewCacheCap[V any](capacity int) *Cache[V] {
	if capacity < 0 {
		capacity = 0
	}
	return &Cache[V]{m: make(map[string]*cacheEntry[V]), cap: capacity}
}

// Do returns the memoized value for key, computing it with fn on first use.
// A nil cache computes without memoizing, so callers can plumb an optional
// cache through without nil checks.
func (c *Cache[V]) Do(key string, fn func() (V, error)) (V, error) {
	if c == nil {
		return fn()
	}
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.moveToFront(e)
		c.mu.Unlock()
		c.hits.Add(1)
		<-e.done
		return e.val, e.err
	}
	e := &cacheEntry[V]{key: key, done: make(chan struct{})}
	c.m[key] = e
	c.pushFront(e)
	c.mu.Unlock()
	c.misses.Add(1)
	// The done channel must close even if fn panics (a waiter blocked on
	// <-e.done would otherwise deadlock forever). On panic the entry is
	// dropped from the map so the key can be recomputed, and waiters get
	// ErrComputePanicked — never a fabricated zero value with a nil error,
	// which downstream code would memoize into results.
	completed := false
	defer func() {
		c.mu.Lock()
		if completed {
			e.completed = true
			c.evictLocked()
		} else {
			e.err = ErrComputePanicked
			if c.m[e.key] == e {
				c.unlink(e)
				delete(c.m, e.key)
			}
		}
		c.mu.Unlock()
		close(e.done)
	}()
	val, err := fn()
	e.val, e.err = val, err
	completed = true
	return val, err
}

// Each snapshots every completed entry and calls fn for each, in unspecified
// order (callers sort). In-flight computations are skipped — an artifact
// export captures what has finished, which is everything once the owning
// driver returns.
func (c *Cache[V]) Each(fn func(key string, val V, err error)) {
	if c == nil {
		return
	}
	type snap struct {
		key string
		val V
		err error
	}
	c.mu.Lock()
	entries := make([]snap, 0, len(c.m))
	for _, e := range c.m {
		if e.completed {
			entries = append(entries, snap{key: e.key, val: e.val, err: e.err})
		}
	}
	c.mu.Unlock()
	for _, s := range entries {
		fn(s.key, s.val, s.err)
	}
}

// pushFront links a new entry at the head of the recency list (mu held).
func (c *Cache[V]) pushFront(e *cacheEntry[V]) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// moveToFront marks an entry most recently used (mu held).
func (c *Cache[V]) moveToFront(e *cacheEntry[V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// unlink removes an entry from the recency list (mu held).
func (c *Cache[V]) unlink(e *cacheEntry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// evictLocked removes least-recently-used completed entries until the cache
// fits its cap (mu held). In-flight entries are skipped: waiters hold their
// entry pointer and single-flight must not be torn down mid-computation.
func (c *Cache[V]) evictLocked() {
	if c.cap <= 0 {
		return
	}
	for e := c.tail; e != nil && len(c.m) > c.cap; {
		prev := e.prev
		if e.completed {
			c.unlink(e)
			delete(c.m, e.key)
			c.evictions.Add(1)
		}
		e = prev
	}
}

// Len reports how many distinct keys are resident (computed or in flight).
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Capacity reports the eviction cap; 0 means unbounded.
func (c *Cache[V]) Capacity() int {
	if c == nil {
		return 0
	}
	return c.cap
}

// Stats reports cache hits and misses, the observability hook the
// equivalence tests use to prove memoization actually engages.
func (c *Cache[V]) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Metrics is a point-in-time snapshot of a cache's counters.
type Metrics struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Capacity  int // 0 = unbounded
}

// Metrics snapshots the cache's counters and occupancy.
func (c *Cache[V]) Metrics() Metrics {
	if c == nil {
		return Metrics{}
	}
	return Metrics{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
		Capacity:  c.cap,
	}
}
