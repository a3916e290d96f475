package serve

import (
	"container/list"
	"sync"
)

// lruCache is the content-addressed result cache: completed, deterministic
// compile outcomes keyed by the (parsed spec, profile, options
// fingerprint) hash, bounded by an approximate byte budget with
// least-recently-used eviction.
//
// Only outcomes that are pure functions of the key go in — success,
// no-solution, and lint rejection. Timeouts and cancellations are
// circumstances of one request, not properties of the spec, and are never
// cached (see compileOutcome).
type lruCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	ll     *list.List // front = most recently used
	items  map[string]*list.Element

	hits, misses, evictions int64
}

type lruEntry struct {
	key string
	out *outcome
}

func newLRUCache(budget int64) *lruCache {
	return &lruCache{
		budget: budget,
		ll:     list.New(),
		items:  map[string]*list.Element{},
	}
}

// get returns the cached outcome for key, refreshing its recency.
func (c *lruCache) get(key string) (*outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).out, true
}

// add stores out under key, evicting from the cold end until the byte
// budget holds. An outcome larger than the whole budget is not stored.
// Re-adding an existing key refreshes the entry in place.
func (c *lruCache) add(key string, out *outcome) {
	if out.size > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.used += out.size - el.Value.(*lruEntry).out.size
		el.Value.(*lruEntry).out = out
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&lruEntry{key: key, out: out})
		c.used += out.size
	}
	for c.used > c.budget {
		el := c.ll.Back()
		if el == nil {
			break
		}
		ent := c.ll.Remove(el).(*lruEntry)
		delete(c.items, ent.key)
		c.used -= ent.out.size
		c.evictions++
	}
}

// snapshot returns the counters and gauges for /stats.
func (c *lruCache) snapshot() (hits, misses, evictions, used, entries int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.used, int64(c.ll.Len())
}
