package serve

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// cacheOutcome classifies how a request was satisfied; it feeds the
// metrics counters and the X-Cache response header.
type cacheOutcome string

const (
	cacheHit       cacheOutcome = "hit"       // served from the LRU
	cacheMiss      cacheOutcome = "miss"      // computed by this request
	cacheCoalesced cacheOutcome = "coalesced" // waited on an identical in-flight request
)

// cacheEntry is one LRU slot.
type cacheEntry[T any] struct {
	key string
	res T
}

// flight is one in-progress computation identical requests wait on.
type flight[T any] struct {
	done      chan struct{} // closed when res/err are final
	res       T
	err       error
	followers int // requests that joined it; guarded by the cache's mu
}

// cache is the deterministic result cache plus singleflight coalescer,
// generic over the cached value: the simulate endpoints store otem.Result,
// the fleet endpoints *otem.FleetResult and the plan endpoint *otem.Plan.
// Runs are pure functions of the canonical request key (detflow enforces
// the absence of hidden nondeterminism), so a cached value is exactly
// what a re-run would produce and coalescing identical in-flight requests
// onto one computation is sound.
//
// Cached values may hold shared pointers (a Result's *Trace, a whole
// *FleetResult); everything downstream treats them as read-only.
type cache[T any] struct {
	mu     sync.Mutex
	max    int // ≤ 0 disables storage; coalescing still applies
	lru    *list.List
	byKey  map[string]*list.Element
	flight map[string]*flight[T]
}

func newCache[T any](maxEntries int) *cache[T] {
	return &cache[T]{
		max:    maxEntries,
		lru:    list.New(),
		byKey:  make(map[string]*list.Element),
		flight: make(map[string]*flight[T]),
	}
}

// do returns the result for key, serving from cache when possible,
// joining an identical in-flight computation when one exists, and
// otherwise computing via fn as the leader. Leader errors are propagated
// to every coalesced waiter and never cached. A waiter whose ctx fires
// first abandons with the ctx error; the leader's computation continues
// for the others.
func (c *cache[T]) do(ctx context.Context, key string, fn func() (T, error)) (T, cacheOutcome, error) {
	c.mu.Lock()
	if e, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(e)
		res := e.Value.(*cacheEntry[T]).res
		c.mu.Unlock()
		return res, cacheHit, nil
	}
	if f, ok := c.flight[key]; ok {
		f.followers++
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.res, cacheCoalesced, f.err
		case <-ctx.Done():
			var zero T
			return zero, cacheCoalesced, fmt.Errorf("serve: abandoned coalesced wait: %w", ctx.Err())
		}
	}
	f := &flight[T]{done: make(chan struct{})}
	c.flight[key] = f
	c.mu.Unlock()

	f.res, f.err = fn()

	c.mu.Lock()
	delete(c.flight, key)
	if f.err == nil {
		c.store(key, f.res)
	}
	c.mu.Unlock()
	close(f.done)
	return f.res, cacheMiss, f.err
}

// get reads one stored entry, refreshing its recency (the /v1/batch
// per-spec fast path, which bypasses the coalescer).
func (c *cache[T]) get(key string) (T, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byKey[key]
	if !ok {
		var zero T
		return zero, false
	}
	c.lru.MoveToFront(e)
	return e.Value.(*cacheEntry[T]).res, true
}

// put stores one computed entry (the /v1/batch write path).
func (c *cache[T]) put(key string, res T) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store(key, res)
}

// store inserts under the LRU bound; the caller holds c.mu.
func (c *cache[T]) store(key string, res T) {
	if c.max <= 0 {
		return
	}
	if e, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(e)
		e.Value.(*cacheEntry[T]).res = res
		return
	}
	c.byKey[key] = c.lru.PushFront(&cacheEntry[T]{key: key, res: res})
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry[T]).key)
	}
}

// len reports the number of stored entries (test hook).
func (c *cache[T]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
