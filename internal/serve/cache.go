package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"soifft"
	"soifft/internal/fft"
)

// lru is a concurrency-safe, single-flight LRU build cache: Get either
// returns the cached value (refreshing recency) or runs build exactly once
// per key while concurrent demanders of the same key wait on the flight.
// Build errors are not cached — the entry is removed so a later Get retries.
type lru[K comparable, V any] struct {
	build func(K) (V, error)

	mu        sync.Mutex
	capacity  int
	ll        *list.List // of *lruEntry[K, V], front = most recent
	items     map[K]*list.Element
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type lruEntry[K comparable, V any] struct {
	key   K
	val   V
	err   error
	ready chan struct{} // closed once val/err are set
}

func newLRU[K comparable, V any](capacity int, build func(K) (V, error)) *lru[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[K, V]{
		build:    build,
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[K]*list.Element),
	}
}

// Get returns the value for key, building it (once, even under concurrent
// demand) on a miss.
func (c *lru[K, V]) Get(key K) (V, error) {
	c.mu.Lock()
	if e, ok := c.items[key]; ok {
		c.ll.MoveToFront(e)
		ent := e.Value.(*lruEntry[K, V])
		c.mu.Unlock()
		c.hits.Add(1)
		<-ent.ready
		return ent.val, ent.err
	}
	ent := &lruEntry[K, V]{key: key, ready: make(chan struct{})}
	e := c.ll.PushFront(ent)
	c.items[key] = e
	if c.ll.Len() > c.capacity {
		// Evict the least recent entry (never the one just inserted; the
		// capacity floor of 1 guarantees back != e here). An in-flight
		// victim still completes its build — its waiters get the value, it
		// just isn't retained.
		victim := c.ll.Back()
		c.ll.Remove(victim)
		delete(c.items, victim.Value.(*lruEntry[K, V]).key)
		c.evictions.Add(1)
	}
	c.mu.Unlock()

	c.misses.Add(1)
	ent.val, ent.err = c.build(key)
	if ent.err != nil {
		c.mu.Lock()
		if cur, ok := c.items[key]; ok && cur == e {
			c.ll.Remove(e)
			delete(c.items, key)
		}
		c.mu.Unlock()
	}
	close(ent.ready)
	return ent.val, ent.err
}

// Len reports the number of cached entries (including in-flight builds).
func (c *lru[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// planKey identifies one SOI plan: the transform length plus the canonical
// config (soifft.Config.Canonical makes structurally-equal configs compare
// equal, so it is the cache identity the root API promises).
type planKey struct {
	n   int
	cfg soifft.Config
}

// CacheStats is a point-in-time snapshot of PlanCache counters.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Designs   int64 // window-design runs (one per miss)
	Entries   int
}

// PlanCache is the concurrency-safe, single-flight LRU of SOI plans keyed
// by (N, Config); a miss designs the window (≈ 20 ms of a ≈ 70 ms cold plan
// at N = 7·2^16).
type PlanCache struct {
	core    *lru[planKey, *soifft.Plan]
	designs atomic.Int64
}

// NewPlanCache creates a plan cache holding up to capacity plans.
func NewPlanCache(capacity int) *PlanCache {
	c := &PlanCache{}
	c.core = newLRU(capacity, func(key planKey) (*soifft.Plan, error) {
		c.designs.Add(1)
		return soifft.NewPlan(key.n, key.cfg)
	})
	return c
}

// Get returns the plan for (n, cfg), designing it on a miss. Concurrent
// demanders of one key share a single design.
func (c *PlanCache) Get(n int, cfg soifft.Config) (*soifft.Plan, error) {
	return c.core.Get(planKey{n: n, cfg: cfg.Canonical()})
}

// Stats returns a snapshot of the cache counters.
func (c *PlanCache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.core.hits.Load(),
		Misses:    c.core.misses.Load(),
		Evictions: c.core.evictions.Load(),
		Designs:   c.designs.Load(),
		Entries:   c.core.Len(),
	}
}

// newExactCache caches fft.Plan instances keyed by length: every exact
// transform, smooth or rough (Bluestein), runs on one of them.
func newExactCache(capacity int) *lru[int, *fft.Plan] {
	return newLRU(capacity, fft.NewPlan)
}

// bufPool pools []complex128 buffers by exact length, so the per-request
// src/dst buffers don't churn the GC at serving rates.
type bufPool struct {
	mu    sync.Mutex
	pools map[int]*sync.Pool
}

func (b *bufPool) pool(n int) *sync.Pool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pools == nil {
		b.pools = make(map[int]*sync.Pool)
	}
	p, ok := b.pools[n]
	if !ok {
		p = &sync.Pool{New: func() any {
			s := make([]complex128, n)
			return &s
		}}
		b.pools[n] = p
	}
	return p
}

func (b *bufPool) get(n int) []complex128 {
	return *(b.pool(n).Get().(*[]complex128))
}

func (b *bufPool) put(x []complex128) {
	if x == nil {
		return
	}
	b.pool(len(x)).Put(&x)
}
