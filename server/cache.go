package server

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/obs"
)

// DefaultPlanCacheEntries caps the plan cache when Options does not choose a
// size. Entries are a few hundred bytes (a shape string, a generation map,
// a seed), so the default bounds the cache to roughly 100 KB while still
// covering far more distinct query shapes than any workload in the repo.
const DefaultPlanCacheEntries = 256

// prepared is one cached plan: which table generations it was prepared
// against, and the candidate count its last execution observed — fed back
// into the next execution as the partitioning seed, so a repeat query whose
// tables overflow the memory grant skips the doomed first in-memory attempt.
type prepared struct {
	key            string
	gens           map[string]uint64
	seedCandidates int64
	elem           *list.Element // position in the cache's recency list
}

// planCache maps normalized query shapes (rewrite.Shape of the rewritten
// plan) to prepared plans, capped at max entries with LRU eviction. A hit
// skips rewrite.Compile entirely — the "rewrite.compiles" obs counter stays
// flat across hits, which the serve -check gate asserts. Entries die when
// any table they reference is dropped (invalidateTable) or re-created under
// the same name (generation mismatch at lookup), or when a store pushes the
// cache past its cap and the least-recently-used entry is evicted
// ("server.cache.evictions"). A shape compiles once however many queries
// of it arrive together: the first miss marks the key in flight, and the
// others wait for its compile and count as hits.
type planCache struct {
	mu           sync.Mutex
	plans        map[string]*prepared
	order        *list.List               // front = most recently used; values are *prepared
	compiling    map[string]chan struct{} // keys whose first miss is compiling; closed when it ends
	max          int
	hits, misses int64
	evictions    int64
}

func newPlanCache(maxEntries int) *planCache {
	if maxEntries <= 0 {
		maxEntries = DefaultPlanCacheEntries
	}
	return &planCache{
		plans:     make(map[string]*prepared),
		order:     list.New(),
		compiling: make(map[string]chan struct{}),
		max:       maxEntries,
	}
}

// removeLocked deletes an entry from both the map and the recency list.
func (c *planCache) removeLocked(p *prepared) {
	delete(c.plans, p.key)
	c.order.Remove(p.elem)
}

// prepare returns the cached seed for key when an entry prepared against the
// same table generations exists, marking it most recently used. Otherwise it
// runs compile and, when that succeeds, stores a fresh entry. While one
// query's compile of a key runs, other queries of that key wait for it (or
// for their own ctx) and then look again, so they count as hits; when the
// compile fails, the next of them compiles in its place. A generation
// mismatch deletes the stale entry and misses.
func (c *planCache) prepare(ctx context.Context, key string, gens map[string]uint64, compile func() error) (seedCandidates int64, hit bool, err error) {
	c.mu.Lock()
	for {
		wait, busy := c.compiling[key]
		if !busy {
			break
		}
		c.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return 0, false, ctx.Err()
		}
		c.mu.Lock()
	}
	p, ok := c.plans[key]
	if ok {
		for name, gen := range gens {
			if p.gens[name] != gen {
				c.removeLocked(p)
				ok = false
				break
			}
		}
	}
	if ok {
		c.order.MoveToFront(p.elem)
		c.hits++
		seed := p.seedCandidates
		c.mu.Unlock()
		obs.Default.Counter("server.cache_hits").Inc()
		return seed, true, nil
	}
	c.misses++
	done := make(chan struct{})
	c.compiling[key] = done
	c.mu.Unlock()
	obs.Default.Counter("server.cache_misses").Inc()

	compiled := false
	defer func() { // also when compile panics
		c.mu.Lock()
		defer c.mu.Unlock()
		delete(c.compiling, key)
		close(done)
		if compiled {
			c.storeLocked(key, gens)
		}
	}()
	if err = compile(); err != nil {
		return 0, false, err
	}
	compiled = true
	return 0, false, nil
}

// storeLocked records a freshly prepared plan at the front of the recency
// list, evicting from the back when the cap is exceeded.
func (c *planCache) storeLocked(key string, gens map[string]uint64) {
	if old, ok := c.plans[key]; ok {
		c.removeLocked(old)
	}
	p := &prepared{key: key, gens: gens}
	p.elem = c.order.PushFront(p)
	c.plans[key] = p
	for len(c.plans) > c.max {
		lru := c.order.Back().Value.(*prepared)
		c.removeLocked(lru)
		c.evictions++
		obs.Default.Counter("server.cache.evictions").Inc()
	}
}

// updateSeed feeds one execution's observed candidate count back into the
// entry (if it still exists — a concurrent drop or eviction may have removed
// it).
func (c *planCache) updateSeed(key string, candidates int64) {
	if candidates <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.plans[key]; ok {
		p.seedCandidates = candidates
	}
}

// invalidateTable drops every plan prepared against the named table.
func (c *planCache) invalidateTable(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.plans {
		if _, uses := p.gens[name]; uses {
			c.removeLocked(p)
		}
	}
}

func (c *planCache) stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// evicted reports how many entries LRU eviction has dropped.
func (c *planCache) evicted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// size reports the current entry count (for tests).
func (c *planCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.plans)
}
