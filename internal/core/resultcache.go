package core

import (
	"container/list"
	"sync"

	"skalla/internal/obs"
	"skalla/internal/relation"
)

// resultCache is the coordinator's super-aggregate result cache: finalized
// query results keyed by plan fingerprint (which hashes the rewritten query,
// the applied rules, the site count, and the catalog generation — see
// plan.Fingerprint). Validity is keyed by (fingerprint, catalog generation):
// every entry remembers the generation its plan was compiled under, and a
// lookup against a moved generation is a miss that drops the stale entry —
// the same invalidation contract as the prepared-plan cache, applied one
// layer later so repeat queries skip the site rounds entirely, not just the
// compile. Cached relations are shared results (shareResult) that are never
// mutated: every hit hands the caller its own header over the same read-only
// rows, and ORDER BY / LIMIT postprocessing edits only that header, so one
// session's result cannot corrupt another's.
type resultCache struct {
	mu  sync.Mutex
	cap int
	lru list.List // of *resultEntry, front = most recent
	//skallavet:allow stringkey -- cache keyed by plan fingerprint: one lookup per query, not per tuple
	entries map[string]*list.Element
}

type resultEntry struct {
	fp  string
	gen uint64 // catalog generation the producing plan was compiled under
	rel *relation.Relation
}

func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	//skallavet:allow stringkey -- cache keyed by plan fingerprint: one lookup per query, not per tuple
	return &resultCache{cap: capacity, entries: make(map[string]*list.Element, capacity)}
}

// get returns the cached result relation for fp when it was produced under
// the current catalog generation. The returned relation is the cache's
// canonical copy — callers hand out views of it (relation.View), never the
// relation itself. A generation mismatch evicts the entry and reports a miss.
// Nil-safe: a nil cache never hits.
func (rc *resultCache) get(fp string, gen uint64) (*relation.Relation, bool) {
	if rc == nil {
		return nil, false
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	el, ok := rc.entries[fp]
	if !ok {
		obs.CoordResultCacheMisses.With("cold").Inc()
		return nil, false
	}
	e := el.Value.(*resultEntry)
	if e.gen != gen {
		rc.lru.Remove(el)
		delete(rc.entries, fp)
		obs.CoordResultCacheEntries.Set(int64(rc.lru.Len()))
		obs.CoordResultCacheMisses.With("generation").Inc()
		return nil, false
	}
	rc.lru.MoveToFront(el)
	obs.CoordResultCacheHits.Inc()
	return e.rel, true
}

// put stores a finalized result, evicting the least recently used entry
// beyond capacity. rel must be a shared, read-only result. The first
// writer wins: a concurrent duplicate (two leaders of the same fingerprint
// racing past each other) keeps the existing entry when its generation still
// matches, so hits keep serving one stable relation. Nil-safe no-op.
func (rc *resultCache) put(fp string, gen uint64, rel *relation.Relation) {
	if rc == nil {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if el, ok := rc.entries[fp]; ok {
		if el.Value.(*resultEntry).gen == gen {
			rc.lru.MoveToFront(el)
			return
		}
		el.Value = &resultEntry{fp: fp, gen: gen, rel: rel}
		rc.lru.MoveToFront(el)
		return
	}
	rc.entries[fp] = rc.lru.PushFront(&resultEntry{fp: fp, gen: gen, rel: rel})
	for rc.lru.Len() > rc.cap {
		oldest := rc.lru.Back()
		rc.lru.Remove(oldest)
		delete(rc.entries, oldest.Value.(*resultEntry).fp)
	}
	obs.CoordResultCacheEntries.Set(int64(rc.lru.Len()))
}

// len returns the number of cached results.
func (rc *resultCache) len() int {
	if rc == nil {
		return 0
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.lru.Len()
}

// SetResultCache installs a super-aggregate result cache of the given
// capacity (0 disables caching; the default). Repeat queries whose plan
// fingerprint matches a cached entry are served with zero site rounds; a
// catalog generation bump invalidates entries both at lookup and before
// commit. Results served from the cache charge the per-query memory budget
// for the bytes they retain, exactly like an executed query would.
func (c *Coordinator) SetResultCache(capacity int) { c.results = newResultCache(capacity) }

// ResultCacheLen returns the number of currently cached results (0 when
// result caching is disabled).
func (c *Coordinator) ResultCacheLen() int { return c.results.len() }
