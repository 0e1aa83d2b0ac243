package core

import (
	"context"

	"skalla/internal/gmdj"
	"skalla/internal/obs"
	"skalla/internal/plan"
)

// planCache is the coordinator's prepared-plan cache. Lookup is keyed by the
// statement source text plus the rule selection (so a cache hit skips parse
// and optimize entirely — in auto mode that is every candidate's
// compilation); validity is keyed by (Plan.Fingerprint, catalog generation)
// as genLRU describes (the fingerprint itself hashes the generation, so the
// recompiled plan also gets a new identity). Compiled plans are immutable
// during execution, so one cached *plan.Plan may be executed by many
// concurrent sessions.
type planCache = genLRU[planKey, *plan.Plan]

// planKey identifies what the caller asked for: the statement source (raw
// query text at the server, the canonical query string at the facade) and the
// canonical selection string.
type planKey struct {
	text string
	sel  string
}

func newPlanCache(capacity int) *planCache {
	return newGenLRU[planKey, *plan.Plan](capacity, obs.ServerPlanCacheHits, obs.ServerPlanCacheMisses, nil)
}

// SetPlanCache installs a prepared-plan cache of the given capacity (0
// disables caching; the default). See planCache for the keying and
// invalidation contract.
func (c *Coordinator) SetPlanCache(capacity int) { c.plans = newPlanCache(capacity) }

// PlanCacheLen returns the number of currently cached plans (0 when caching
// is disabled).
func (c *Coordinator) PlanCacheLen() int { return c.plans.len() }

// ExecuteCached evaluates the statement identified by text under sel, reusing
// the prepared plan cached for (text, sel.String()) when the catalog
// generation still matches. The selection's text is canonical, so rule lists
// that differ only in order, or list every rule against all, share an entry.
// On a miss, parse produces the query, the plan is compiled (auto mode
// compiles its candidates once per cached plan) and stored.
// The returned flag reports whether the plan came from the cache. With
// caching disabled this is parse + ExecuteWith.
func (c *Coordinator) ExecuteCached(ctx context.Context, text string, sel plan.Selection, parse func() (gmdj.Query, error)) (*Result, bool, error) {
	key := planKey{text: text, sel: sel.String()}
	if pl, ok := c.plans.get(key, c.cat.Gen()); ok {
		res, err := c.ExecutePlan(ctx, pl, c.SchemaSource(ctx))
		return res, true, err
	}
	q, err := parse()
	if err != nil {
		return nil, false, err
	}
	src := c.SchemaSource(ctx)
	pl, err := plan.Compile(q, src, c.cat, len(c.sites), sel, plan.DefaultCostModel(c.net))
	if err != nil {
		return nil, false, err
	}
	recordPlanObs(pl)
	// put adopts a concurrently inserted same-generation entry, so every
	// racing miss ends up executing the one canonical compiled plan.
	pl = c.plans.put(key, pl, c.cat.Gen())
	res, err := c.ExecutePlan(ctx, pl, src)
	return res, false, err
}
