package serve

import (
	"container/list"
	"sync"

	"clapf/internal/retrieval"
)

// resultCache is a bounded LRU of finished top-K responses keyed on
// (user id, k). It holds no generation field on purpose: invalidation is
// structural. Each liveState owns exactly one cache, created empty when
// the model is installed, and a model swap replaces the whole liveState
// pointer atomically — so a request that loaded the old state keeps
// reading (and even writing) the old cache, which is then garbage, while
// no request holding the new state can ever observe a pre-swap entry.
//
// Only known-user requests are cached: cold-start histories are free-form
// and would make the key space unbounded.
//
// Within a generation, online updates invalidate single users. A fill
// computed before such an invalidation must not land after it, or the
// stale list (which may recommend the just-acknowledged item) would be
// served until evicted. Every invalidation therefore bumps its user's
// stripe of inval; a miss reads the stripe (stamp) before computing, and
// put stores nothing once the stripe has moved. Striping bounds the
// memory; a collision only costs a refused fill.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	byKey map[cacheKey]*list.Element
	inval [invalStripes]uint64
}

// invalStripes is the number of per-user invalidation counters.
const invalStripes = 1024

// cacheKey carries the retrieval mode alongside (user, k): exact and IVF
// answers for the same request differ, and SetRetrieval rebuilds the
// liveState but a request racing it may still write into the old
// generation's cache — keying on mode means such an entry can never be
// served under the other mode.
type cacheKey struct {
	user int32
	k    int
	mode retrieval.Mode
}

type cacheEntry struct {
	key   cacheKey
	items []Item
}

// newResultCache returns a cache bounded to capacity entries, or nil when
// capacity <= 0 (caching disabled; all lookups miss).
func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	return &resultCache{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[cacheKey]*list.Element, capacity),
	}
}

// get returns the cached items for key, marking it most-recently used.
// The returned slice is shared and must be treated as immutable.
func (c *resultCache) get(key cacheKey) ([]Item, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).items, true
}

// stamp returns user u's invalidation stamp, to be read before computing
// the list a later put stores.
func (c *resultCache) stamp(u int32) uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inval[uint32(u)%invalStripes]
}

// put stores items under key and reports how many entries were evicted to
// stay within capacity (0 or 1). Re-putting an existing key refreshes it.
// stamp is the user's stamp from before the items were computed; if the
// user's stripe was invalidated since, nothing is stored.
func (c *resultCache) put(key cacheKey, items []Item, stamp uint64) (evicted int) {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inval[uint32(key.user)%invalStripes] != stamp {
		return 0
	}
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).items = items
		c.ll.MoveToFront(el)
		return 0
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, items: items})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
		evicted++
	}
	return evicted
}

// invalidateUser drops every entry belonging to user u — the targeted
// invalidation the online-update path needs: one user's factors changed,
// so only that user's cached top-K answers (across all k and modes) are
// stale; everyone else's stay warm. The scan is over the key map, bounded
// by the cache capacity (microseconds at the default 4096), and runs
// under the same mutex as get/put. It also bumps u's stamp so a fill
// racing the invalidation is refused (see resultCache).
func (c *resultCache) invalidateUser(u int32) (removed int) {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inval[uint32(u)%invalStripes]++
	for key, el := range c.byKey {
		if key.user == u {
			c.ll.Remove(el)
			delete(c.byKey, key)
			removed++
		}
	}
	return removed
}

// size returns the current entry count.
func (c *resultCache) size() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
