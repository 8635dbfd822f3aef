package server

import (
	"container/list"
	"sync"

	"repro/internal/obs"
	"repro/internal/sparql"
)

// planCache is an LRU cache of prepared query plans keyed by the exact
// query text. A hit returns the shared *sparql.Prepared — safe because
// Prepared is goroutine-safe and immutable apart from its internal,
// mutex-guarded per-graph plan memo — so a cached query skips parsing,
// slot-table construction, and (via the Prepared plan memo) BGP
// compilation and join ordering entirely.
//
// Keying by the raw text is deliberate: normalizing whitespace or
// case would require parsing first, which is exactly the work a hit
// must avoid. Two spellings of the same query simply occupy two slots.
type planCache struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	byText map[string]*list.Element
	// hits and misses are moved under mu (so stats reads a consistent
	// pair) and rendered, lock-free, through the server's registry.
	hits, misses obs.Counter
}

type cacheEntry struct {
	text string
	prep *sparql.Prepared
}

// newPlanCache builds a cache holding up to capacity plans; a
// capacity <= 0 disables caching (every lookup is a miss).
func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:    capacity,
		ll:     list.New(),
		byText: make(map[string]*list.Element),
	}
}

// prepare returns the cached plan for text, or parses and caches a new
// one. cached reports whether the plan came from the cache.
func (c *planCache) prepare(text string) (prep *sparql.Prepared, cached bool, err error) {
	c.mu.Lock()
	if el, ok := c.byText[text]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		prep = el.Value.(*cacheEntry).prep
		c.mu.Unlock()
		return prep, true, nil
	}
	c.misses.Add(1)
	c.mu.Unlock()

	// Parse outside the lock: a slow parse of one query must not block
	// cache hits for others. Two racing misses both parse; the second
	// insert wins and the loser's plan is simply dropped.
	prep, err = sparql.Prepare(text)
	if err != nil {
		return nil, false, err
	}
	if c.cap <= 0 {
		return prep, false, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byText[text]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).prep, false, nil
	}
	c.byText[text] = c.ll.PushFront(&cacheEntry{text: text, prep: prep})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byText, oldest.Value.(*cacheEntry).text)
	}
	return prep, false, nil
}

// stats returns the hit/miss counters and current size.
func (c *planCache) stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), c.ll.Len()
}
