package core

import (
	"container/list"
	"sync"

	"skalla/internal/obs"
)

// genLRU is a generation-keyed LRU cache, the structure behind both the
// prepared-plan cache and the super-aggregate result cache. Every entry
// remembers the catalog generation its value was produced under; a lookup
// against a moved generation is a miss that drops the stale entry. Insertion
// is idempotent per (key, generation): the first writer wins, so racing
// misses converge on one canonical value, while an entry from a stale
// generation is replaced. Every method is nil-safe: a nil cache (caching
// off) never hits and stores nothing.
type genLRU[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	lru     list.List // of *genEntry[K, V], front = most recent
	entries map[K]*list.Element

	hits   *obs.Counter
	misses *obs.CounterVec // by reason: "cold", "generation"
	size   *obs.Gauge      // nil = no entries gauge
}

type genEntry[K comparable, V any] struct {
	key K
	val V
	gen uint64
}

// newGenLRU creates a cache of the given capacity counting into the given
// metrics; capacity ≤ 0 returns nil (caching off).
func newGenLRU[K comparable, V any](capacity int, hits *obs.Counter, misses *obs.CounterVec, size *obs.Gauge) *genLRU[K, V] {
	if capacity <= 0 {
		return nil
	}
	return &genLRU[K, V]{cap: capacity, entries: make(map[K]*list.Element, capacity), hits: hits, misses: misses, size: size}
}

// get returns the value cached for key when it was produced under gen.
func (c *genLRU[K, V]) get(key K, gen uint64) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.With("cold").Inc()
		return zero, false
	}
	e := el.Value.(*genEntry[K, V])
	if e.gen != gen {
		c.lru.Remove(el)
		delete(c.entries, key)
		c.setSize()
		c.misses.With("generation").Inc()
		return zero, false
	}
	c.lru.MoveToFront(el)
	c.hits.Inc()
	return e.val, true
}

// put stores val for key under gen, evicting the least recently used entry
// beyond capacity, and returns the canonical value for the key: the existing
// one when an entry of the same generation is already there.
func (c *genLRU[K, V]) put(key K, val V, gen uint64) V {
	if c == nil {
		return val
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*genEntry[K, V])
		if e.gen == gen {
			c.lru.MoveToFront(el)
			return e.val
		}
		el.Value = &genEntry[K, V]{key: key, val: val, gen: gen}
		c.lru.MoveToFront(el)
		return val
	}
	c.entries[key] = c.lru.PushFront(&genEntry[K, V]{key: key, val: val, gen: gen})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*genEntry[K, V]).key)
	}
	c.setSize()
	return val
}

// len returns the number of cached entries.
func (c *genLRU[K, V]) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// setSize refreshes the entries gauge; the caller holds mu.
func (c *genLRU[K, V]) setSize() {
	if c.size != nil {
		c.size.Set(int64(c.lru.Len()))
	}
}
