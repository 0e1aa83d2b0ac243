package core

import (
	"skalla/internal/obs"
	"skalla/internal/relation"
)

// resultCache is the coordinator's super-aggregate result cache: finalized
// query results keyed by plan fingerprint (which hashes the rewritten query,
// the applied rules, the site count, and the catalog generation — see
// plan.Fingerprint), under genLRU's generation contract — the same
// invalidation as the prepared-plan cache, applied one layer later so repeat
// queries skip the site rounds entirely, not just the compile. Cached
// relations are shared results (shareResult) that are never mutated: every
// hit hands the caller its own header over the same read-only rows, and
// ORDER BY / LIMIT postprocessing edits only that header, so one session's
// result cannot corrupt another's.
type resultCache genLRU[string, *relation.Relation]

func newResultCache(capacity int) *resultCache {
	return (*resultCache)(newGenLRU[string, *relation.Relation](capacity,
		obs.CoordResultCacheHits, obs.CoordResultCacheMisses, obs.CoordResultCacheEntries))
}

func (rc *resultCache) inner() *genLRU[string, *relation.Relation] {
	return (*genLRU[string, *relation.Relation])(rc)
}

// get returns the cache's canonical relation for fp — callers hand out views
// of it (relation.View), never the relation itself.
func (rc *resultCache) get(fp string, gen uint64) (*relation.Relation, bool) {
	return rc.inner().get(fp, gen)
}

// put stores a shared, read-only result; the first writer of a generation
// wins, so hits keep serving one stable relation.
func (rc *resultCache) put(fp string, gen uint64, rel *relation.Relation) {
	rc.inner().put(fp, rel, gen)
}

func (rc *resultCache) len() int { return rc.inner().len() }

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
